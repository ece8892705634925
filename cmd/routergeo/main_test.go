package main

import (
	"strings"
	"testing"
)

func TestSelectExperimentsRejectsUnknownID(t *testing.T) {
	_, err := selectExperiments("table1,nope")
	if err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("selectExperiments(\"table1,nope\") error = %v, want one naming \"nope\"", err)
	}
}

func TestSelectExperimentsTrimsAndKeepsOrder(t *testing.T) {
	got, err := selectExperiments(" table1 , fig2")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "table1" || got[1].ID != "fig2" {
		ids := make([]string, len(got))
		for i, e := range got {
			ids[i] = e.ID
		}
		t.Fatalf("selectExperiments(\" table1 , fig2\") = %v, want [table1 fig2]", ids)
	}
}

func TestCheckModeFlagsRejectsDroppedFlags(t *testing.T) {
	for _, c := range []struct {
		run       string
		ext       bool
		dbdir     string
		plotdir   string
		stability int
		longit    bool
		remote    string
		want      []string // substrings of the error; none means no error
	}{
		{run: "table1"},
		{ext: true},
		{longit: true},
		{remote: "http://127.0.0.1:1"},
		{stability: 2},
		{dbdir: "D", plotdir: "P"},
		{dbdir: "D", plotdir: "P", longit: true},
		{dbdir: "D", plotdir: "P", remote: "http://127.0.0.1:1"},
		{dbdir: "D", stability: 1, want: []string{"-dbdir", "-stability"}},
		{plotdir: "P", stability: 1, want: []string{"-plotdir", "-stability"}},
		{dbdir: "D", plotdir: "P", stability: 1, want: []string{"-dbdir", "-plotdir", "-stability"}},
		{run: "table1", longit: true, want: []string{"-run", "-longitudinal"}},
		{ext: true, longit: true, want: []string{"-ext", "-longitudinal"}},
		{run: "fig2", remote: "http://127.0.0.1:1", want: []string{"-run", "-remote"}},
		{ext: true, remote: "http://127.0.0.1:1", want: []string{"-ext", "-remote"}},
		{run: "table1", stability: 3, want: []string{"-run", "-stability"}},
		{ext: true, stability: 3, want: []string{"-ext", "-stability"}},
	} {
		err := checkModeFlags(c.run, c.ext, c.dbdir, c.plotdir, c.stability, c.longit, c.remote)
		if len(c.want) == 0 {
			if err != nil {
				t.Errorf("checkModeFlags(%+v) = %v, want nil", c, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("checkModeFlags(%+v) = nil, want an error naming %v", c, c.want)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("checkModeFlags(%+v) = %q, want it to name %s", c, err, w)
			}
		}
	}
}
