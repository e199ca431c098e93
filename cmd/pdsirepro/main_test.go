package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for pdsirepro: with
// PDSIREPRO_MAIN=1 in its environment it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("PDSIREPRO_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagValuesExitTwo runs pdsirepro with experiment flags no
// figure can run with. Each must stop before any figure prints, with one
// line on stderr and exit status 2, as an unknown -fig does. A panic
// also exits 2, so the test checks stderr for one too.
func TestBadFlagValuesExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "rebuild", "-rebuild-oss", "0"},
		{"-rebuild-oss", "8"},
		{"-fig", "scale", "-scale-pods", "0"},
		{"-fig", "scale", "-scale-ranks", "0"},
		{"-fig", "scale", "-scale-oss", "0"},
		{"-fig", "rebuild", "-rebuild-rounds", "0"},
		{"-fig", "nosuch"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), "PDSIREPRO_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("run ended with %v, want exit status 2; stderr:\n%s", err, stderr.Bytes())
			}
			msg := stderr.String()
			if strings.Contains(msg, "panic:") || strings.Contains(msg, "goroutine ") || strings.Count(msg, "\n") != 1 {
				t.Fatalf("stderr is not one error line:\n%s", msg)
			}
			if stdout.Len() != 0 {
				t.Fatalf("printed %d bytes before failing:\n%s", stdout.Len(), stdout.Bytes())
			}
		})
	}
}

// TestFigureDeterminism is the replay contract of pdsirepro's outputs:
// stdout and the metrics, trace, report and series files. Each row runs
// its figures in process through newRun, as main does, once per
// GOMAXPROCS value it lists. The outputs in same must be
// byte-identical across the runs: a same-seed replay, or GOMAXPROCS 1
// against 4, which also spreads the rebuild pods over one shard or
// four. Each output must match the row's keys (regexps, one match
// anywhere, as grep finds them), which show the figure exercised the
// path the row claims, and no figure may print DIVERGED.
func TestFigureDeterminism(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, tc := range []struct {
		name  string
		args  []string
		procs []int
		same  []string
		keys  map[string][]string
	}{
		{
			name:  "faults replay",
			args:  []string{"-fig", "faults"},
			procs: []int{4, 4},
			same:  []string{"metrics", "trace"},
			keys:  map[string][]string{"metrics": {`"pfs\.faults\.crashes"`, `"pfs\.rebuild\.started"`}},
		},
		{
			name:  "integrity replay",
			args:  []string{"-fig", "integrity"},
			procs: []int{4, 4},
			same:  []string{"metrics"},
			keys:  map[string][]string{"metrics": {`"pfs\.integrity\.silent_reads"`, `"pfs\.integrity\.repaired"`}},
		},
		{
			name:  "report and series across GOMAXPROCS",
			args:  []string{"-fig", "8,faults"},
			procs: []int{1, 4},
			same:  []string{"report", "series"},
			keys: map[string][]string{
				"report": {`pfs\.write\.latency_s`, `Top bottlenecks`},
				"series": {`(?m)^t_s,`},
			},
		},
		{
			// The figure compares its own 1, 2, 4 and 8 shard snapshots.
			name:  "scale shard sweep",
			args:  []string{"-fig", "scale"},
			procs: []int{4},
			keys:  map[string][]string{"stdout": {`identical`}},
		},
		{
			name:  "bb across GOMAXPROCS",
			args:  []string{"-fig", "bb"},
			procs: []int{1, 4},
			same:  []string{"metrics", "trace"},
			keys:  map[string][]string{"metrics": {`"bb\.absorb\.bytes"`, `"bb\.faults\.lost_bytes"`}},
		},
		{
			// A tenth of the default population keeps the race-detector
			// run short: 4 pods at the small scale and 16 at the large.
			name:  "rebuild on 1 and 4 shards",
			args:  []string{"-fig", "rebuild", "-rebuild-drives", "1024"},
			procs: []int{1, 4},
			same:  []string{"stdout", "metrics", "series"},
			keys: map[string][]string{"metrics": {
				`"sim\.cluster\.windows"`, `pfs\.rebuild\.completed`, `pfs\.loss\.groups`,
			}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			need := map[string]bool{}
			for _, out := range tc.same {
				need[out] = true
			}
			for out := range tc.keys {
				need[out] = true
			}
			var runs []map[string][]byte
			for _, procs := range tc.procs {
				runtime.GOMAXPROCS(procs)
				runs = append(runs, runFigures(t, tc.args, need))
			}
			for _, out := range tc.same {
				for i := 1; i < len(runs); i++ {
					if d := lineDiff(runs[0][out], runs[i][out]); d != "" {
						t.Errorf("%s at GOMAXPROCS %d vs %d: %s", out, tc.procs[0], tc.procs[i], d)
					}
				}
			}
			for out, keys := range tc.keys {
				for _, key := range keys {
					if !regexp.MustCompile(key).Match(runs[0][out]) {
						t.Errorf("%s has no match for %s", out, key)
					}
				}
			}
			for i, run := range runs {
				if bytes.Contains(run["stdout"], []byte("DIVERGED")) {
					t.Errorf("run %d printed DIVERGED:\n%s", i, run["stdout"])
				}
			}
		})
	}
}

// runFigures runs pdsirepro on args in process, writing the output
// files that need names into a fresh directory, and returns stdout and
// those files' bytes by output name.
func runFigures(t *testing.T, args []string, need map[string]bool) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{}
	args = append([]string(nil), args...)
	for _, o := range []struct{ name, flag string }{
		{"metrics", "-metrics"}, {"trace", "-trace"}, {"report", "-report"}, {"series", "-timeseries"},
	} {
		if need[o.name] {
			files[o.name] = filepath.Join(dir, o.name)
			args = append(args, o.flag, files[o.name])
		}
	}
	var stdout bytes.Buffer
	r, err := newRun(args, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("%s: panic: %v\nstdout:\n%s", strings.Join(args, " "), p, stdout.Bytes())
		}
	}()
	r.printFigures()
	if err := r.writeFiles(); err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{"stdout": stdout.Bytes()}
	for out, path := range files {
		if got[out], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	return got
}

// lineDiff describes how b differs from a, line by line: how many lines
// differ and the first that does, or "" when the two are identical.
func lineDiff(a, b []byte) string {
	if bytes.Equal(a, b) {
		return ""
	}
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := max(len(la), len(lb))
	la = append(la, make([][]byte, n-len(la))...)
	lb = append(lb, make([][]byte, n-len(lb))...)
	first, diff := -1, 0
	for i := range n {
		if !bytes.Equal(la[i], lb[i]) {
			if first < 0 {
				first = i
			}
			diff++
		}
	}
	if first < 0 { // only a trailing newline differs
		return fmt.Sprintf("%d bytes against %d, lines equal", len(a), len(b))
	}
	return fmt.Sprintf("%d of %d lines differ; first at line %d:\n- %s\n+ %s", diff, n, first+1, la[first], lb[first])
}
