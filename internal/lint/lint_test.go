package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysistest"
)

// TestWalltime checks walltime-reach's direct uses: calls and function
// values of the wall-clock functions, flagged where they appear.
func TestWalltime(t *testing.T) {
	analysistest.Run(t, lint.Walltimereach, "walltime")
}

func TestGlobalrand(t *testing.T) {
	analysistest.Run(t, lint.Globalrand, "globalrand")
}

func TestMaporder(t *testing.T) {
	analysistest.Run(t, lint.Maporder, "maporder")
}

func TestMetricname(t *testing.T) {
	analysistest.Run(t, lint.Metricname, "metricname/a", "metricname/b")
}

func TestErrwrap(t *testing.T) {
	analysistest.Run(t, lint.Errwrap, "errwrap")
}

func TestGoroutine(t *testing.T) {
	analysistest.Run(t, lint.Goroutine, "goroutine")
}

func TestErrflow(t *testing.T) {
	analysistest.Run(t, lint.Errflow, "errflow")
}

// TestWalltimereach checks walltime-reach's transitive findings and the
// harness-only scope of the sanctioned stopwatch root.
func TestWalltimereach(t *testing.T) {
	analysistest.Run(t, lint.Walltimereach, "walltimereach/helpers", "walltimereach/app")
}

// TestAnalyzerMetadata pins the analyzer set: names are the //lint:allow
// vocabulary and must stay stable.
func TestAnalyzerMetadata(t *testing.T) {
	want := []string{
		"globalrand", "maporder", "metricname", "errwrap",
		"goroutine", "errflow", "walltime-reach",
	}
	all := lint.All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
	}
}
