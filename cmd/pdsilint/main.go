// Command pdsilint is the repository's determinism multichecker: it
// runs the internal/lint analyzer suite — the syntactic checks
// (globalrand, maporder, metricname, errwrap) and the flow-aware ones
// (goroutine, errflow, walltime-reach) — over the module and exits
// non-zero on any finding. CI gates on it; run it locally with:
//
//	go run ./cmd/pdsilint ./...
//	go run ./cmd/pdsilint ./internal/pfs ./internal/core
//
// Flags: -list enumerates the analyzers; -json emits the findings as a
// deterministic JSON object on stdout (file paths module-relative, so
// two checkouts produce identical bytes); -time reports per-analyzer
// wall time on stderr; -budget fails the run (exit 3) when the total
// load+analysis wall time exceeds the given duration, which CI uses to
// keep the lint gate from quietly absorbing the build budget.
//
// Suppress an individual finding with a trailing //lint:allow <name>
// comment, or a whole sanctioned file with //lint:allowfile <name> --
// reason (policy in DESIGN.md, "Determinism invariants and static
// enforcement"). Unlike go vet, pdsilint also lints _test.go files:
// golden-snapshot tests are part of the determinism contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/lint"
	"repro/internal/lint/engine"
	"repro/internal/obs"
)

// jsonFinding is one finding in -json output. Fields are a flat,
// stable-ordered struct (no maps) so the bytes are deterministic.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

type jsonReport struct {
	Findings []jsonFinding `json:"findings"`
	Count    int           `json:"count"`
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as deterministic JSON on stdout")
	timing := flag.Bool("time", false, "report per-analyzer wall time on stderr")
	budget := flag.Duration("budget", 0, "exit 3 if load+analysis wall time exceeds this (0 disables)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: pdsilint [-list] [-json] [-time] [-budget d] [patterns]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdsilint:", err)
		os.Exit(2)
	}
	root, err := lint.FindModuleRoot(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdsilint:", err)
		os.Exit(2)
	}

	// Load once, then run analyzers one at a time over the shared units
	// so each analyzer's wall time is its own. Findings are merged back
	// into the canonical order, so the output is byte-identical to a
	// single combined run.
	sw := obs.StartStopwatch()
	units, err := lint.LoadUnits(root, flag.Args())
	loadTime := sw.Elapsed()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdsilint:", err)
		os.Exit(2)
	}

	type lap struct {
		name string
		d    time.Duration
	}
	laps := []lap{{"(load)", loadTime}}
	total := loadTime
	var findings []engine.Finding
	for _, a := range lint.All() {
		sw := obs.StartStopwatch()
		fs, err := engine.Run(units, []*engine.Analyzer{a})
		d := sw.Elapsed()
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdsilint:", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
		laps = append(laps, lap{a.Name, d})
		total += d
	}
	engine.SortFindings(findings)

	if *timing {
		for _, l := range laps {
			fmt.Fprintf(os.Stderr, "pdsilint: %-14s %8.1fms\n", l.name, float64(l.d.Microseconds())/1000)
		}
		fmt.Fprintf(os.Stderr, "pdsilint: total %v\n", total.Round(time.Millisecond))
	}

	if *jsonOut {
		report := jsonReport{Findings: make([]jsonFinding, 0, len(findings)), Count: len(findings)}
		for _, f := range findings {
			file := f.Position.Filename
			if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = filepath.ToSlash(rel)
			}
			report.Findings = append(report.Findings, jsonFinding{
				Analyzer: f.Analyzer,
				File:     file,
				Line:     f.Position.Line,
				Col:      f.Position.Column,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "pdsilint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
	}

	exit := 0
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "pdsilint: %d finding(s)\n", len(findings))
		exit = 1
	}
	if *budget > 0 && total > *budget {
		fmt.Fprintf(os.Stderr, "pdsilint: analysis took %v, over the %v budget\n",
			total.Round(time.Millisecond), *budget)
		if exit == 0 {
			exit = 3
		}
	}
	os.Exit(exit)
}
