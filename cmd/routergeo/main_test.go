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
		on   []string // mode flags and flags a mode drops, each asking for something
		set  []string // flags given on the command line, beyond those in on
		want []string // substrings of the error; none means no error
	}{
		{on: []string{"run"}},
		{on: []string{"ext"}},
		{on: []string{"longitudinal"}},
		{on: []string{"remote"}},
		{on: []string{"stability"}},
		{on: []string{"dbdir", "plotdir"}},
		{on: []string{"dbdir", "plotdir", "longitudinal"}},
		{on: []string{"dbdir", "plotdir", "remote"}},
		{on: []string{"dbdir", "stability"}, want: []string{"-dbdir", "-stability"}},
		{on: []string{"plotdir", "stability"}, want: []string{"-plotdir", "-stability"}},
		{on: []string{"dbdir", "plotdir", "stability"}, want: []string{"-dbdir", "-plotdir", "-stability"}},
		{on: []string{"run", "longitudinal"}, want: []string{"-run", "-longitudinal"}},
		{on: []string{"ext", "longitudinal"}, want: []string{"-ext", "-longitudinal"}},
		{on: []string{"run", "remote"}, want: []string{"-run", "-remote"}},
		{on: []string{"ext", "remote"}, want: []string{"-ext", "-remote"}},
		{on: []string{"run", "stability"}, want: []string{"-run", "-stability"}},
		{on: []string{"ext", "stability"}, want: []string{"-ext", "-stability"}},
		{on: []string{"longitudinal"}, set: []string{"epochs", "interval-months"}},
		{on: []string{"remote"}, set: []string{"remote-fallback"}},
		{set: []string{"epochs"}, want: []string{"-epochs", "-longitudinal"}},
		{set: []string{"interval-months"}, want: []string{"-interval-months", "-longitudinal"}},
		{set: []string{"remote-fallback"}, want: []string{"-remote-fallback", "-remote"}},
		{on: []string{"remote"}, set: []string{"epochs"}, want: []string{"-epochs", "-longitudinal"}},
		{on: []string{"longitudinal"}, set: []string{"remote-fallback"}, want: []string{"-remote-fallback", "-remote"}},
		{on: []string{"stability"}, set: []string{"epochs", "interval-months", "remote-fallback"},
			want: []string{"-epochs", "-interval-months", "-longitudinal", "-remote-fallback", "-remote"}},
		{on: []string{"run", "longitudinal"}, set: []string{"remote-fallback"}, want: []string{"-run", "-remote-fallback"}},
		// Two modes: main would run only the first.
		{on: []string{"stability", "longitudinal"}, want: []string{"-stability", "-longitudinal", "separate modes"}},
		{on: []string{"stability", "remote"}, want: []string{"-stability", "-remote", "separate modes"}},
		{on: []string{"longitudinal", "remote"}, set: []string{"epochs", "remote-fallback"}, want: []string{"-longitudinal", "-remote", "separate modes"}},
	} {
		on, set := map[string]bool{}, map[string]bool{}
		for _, name := range c.on {
			on[name], set[name] = true, true
		}
		for _, name := range c.set {
			set[name] = true
		}
		err := checkModeFlags(on, set)
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
