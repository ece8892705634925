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
