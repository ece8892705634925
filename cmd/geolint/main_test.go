package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"routergeo/internal/lint"
)

// TestWriteJSONCleanRunIsEmptyArray runs every analyzer over a clean
// package, as `geolint -json` does, and requires the JSON array [] with
// and without -diff's filter, never null.
func TestWriteJSONCleanRunIsEmptyArray(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load("./internal/stats")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	clean := lint.Run(pkgs, loader.Fset, lint.All())
	if len(clean) != 0 {
		t.Fatalf("internal/stats has findings: %v", clean)
	}
	found := []lint.Finding{{Rule: "maporder", Msg: "in a file -diff leaves out"}}
	for _, c := range []struct {
		name     string
		findings []lint.Finding
	}{
		{"clean run", clean},
		{"clean run, -diff", lint.FilterByFile(clean, map[string]bool{})},
		{"findings outside -diff", lint.FilterByFile(found, map[string]bool{})},
	} {
		var buf bytes.Buffer
		if err := writeJSON(&buf, c.findings); err != nil {
			t.Fatalf("%s: writeJSON: %v", c.name, err)
		}
		if got := buf.String(); got != "[]\n" {
			t.Errorf("%s: geolint -json wrote %q, want %q", c.name, got, "[]\n")
		}
	}

	var buf bytes.Buffer
	if err := writeJSON(&buf, found); err != nil {
		t.Fatalf("writeJSON: %v", err)
	}
	var decoded []lint.Finding
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil || len(decoded) != 1 || decoded[0].Rule != "maporder" {
		t.Errorf("one finding decoded as %v, %v from %s", decoded, err, buf.String())
	}
}
