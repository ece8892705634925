// Command geolint runs this repository's project-specific static
// analyzers over the tree. It is the mechanical keeper of the engine's
// invariants — determinism, ordered output, context threading, the
// import DAG, the dependency-free policy and slog conventions — and the
// `make lint` step of the pre-PR gate.
//
// Usage:
//
//	geolint [-json] [-rule name[,name...]] [-diff ref] [-list] [patterns...]
//
// Patterns default to ./cmd/... and ./internal/... relative to the
// module root (found by walking up from the working directory).
// -diff ref restricts the REPORTED findings to files changed since the
// git ref (committed, staged or untracked); analyzers still run over
// whole packages so cross-file facts stay sound. Outside a git
// repository -diff degrades to a full run with a warning. Exit
// status is 0 when clean, 1 when there are findings, 2 on usage or
// load errors. Suppress an individual finding with
//
//	//lint:ignore <rule> <reason>
//
// on the offending line or the line directly above it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"routergeo/internal/lint"
)

func main() {
	var (
		jsonOut  = flag.Bool("json", false, "emit findings as a JSON array")
		ruleSel  = flag.String("rule", "", "comma-separated rule names to run (default: all)")
		diffRef  = flag.String("diff", "", "report only findings in files changed since this git ref")
		listOnly = flag.Bool("list", false, "list available rules and exit")
	)
	flag.Parse()

	analyzers := lint.All()
	if *listOnly {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *ruleSel != "" {
		sel, bad, ok := lint.ByName(strings.Split(*ruleSel, ","))
		if !ok {
			fmt.Fprintf(os.Stderr, "geolint: unknown rule %q (use -list)\n", bad)
			os.Exit(2)
		}
		analyzers = sel
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./cmd/...", "./internal/..."}
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "geolint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "geolint:", err)
		os.Exit(2)
	}

	findings := lint.Run(pkgs, loader.Fset, analyzers)
	if *diffRef != "" {
		changed, err := lint.ChangedSince(loader.Root, *diffRef)
		if err != nil {
			fmt.Fprintf(os.Stderr, "geolint: -diff %s unavailable (%v); running over the full tree\n", *diffRef, err)
		} else {
			findings = lint.FilterByFile(findings, changed)
		}
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "geolint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "geolint: %d finding(s) across %d package(s)\n", len(findings), len(pkgs))
		}
		os.Exit(1)
	}
}

// writeJSON writes findings as an indented JSON array. lint.Run returns
// nil when nothing is found, and a clean run must still write [].
func writeJSON(w io.Writer, findings []lint.Finding) error {
	if findings == nil {
		findings = []lint.Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}
