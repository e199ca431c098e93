package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for plfsbench: with
// PLFSBENCH_MAIN=1 in its environment it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("PLFSBENCH_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs plfsbench on args in a child process and returns its
// stdout, its stderr and its exit status.
func runMain(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PLFSBENCH_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.Bytes(), errOut.Bytes(), code
}

// TestBadFlagValuesExitTwo runs plfsbench with flag values no run can
// use. Each must stop before the run starts, with one line on stderr and
// exit status 2, as an unknown -fs does. A panic also exits 2, so the
// test checks stderr for one too.
func TestBadFlagValuesExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-ranks", "0"},
		{"-servers", "0"},
		{"-mb", "0"},
		{"-record", "0"},
		{"-sweep", "-record", "0"},
		{"-pattern", "nn", "-mtbf", "8", "-checkpoints", "0"},
		{"-pattern", "nn", "-bb-mode", "back", "-checkpoints", "0"},
		{"-corrupt-rate", "20", "-scrub", "-1"},
		{"-fs", "nosuch"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			stdout, stderr, code := runMain(t, args...)
			if code != 2 {
				t.Fatalf("run exited %d, want 2; stderr:\n%s", code, stderr)
			}
			msg := string(stderr)
			if strings.Contains(msg, "panic:") || strings.Contains(msg, "goroutine ") || strings.Count(msg, "\n") != 1 {
				t.Fatalf("stderr is not one error line:\n%s", msg)
			}
			if len(stdout) != 0 {
				t.Fatalf("printed %d bytes before failing:\n%s", len(stdout), stdout)
			}
		})
	}
}

// TestOutputsDoNotChangeTheRun: observation outputs leave the run's
// report alone, and an output that fails to write still leaves a whole
// CPU profile behind.
func TestOutputsDoNotChangeTheRun(t *testing.T) {
	dir := t.TempDir()
	t.Run("timeseries keeps the write-back stdout", func(t *testing.T) {
		args := []string{"-pattern", "nn", "-bb-mode", "back"}
		plain, _, code := runMain(t, args...)
		series, stderr, code2 := runMain(t, append(args, "-timeseries", filepath.Join(dir, "s.csv"))...)
		if code != 0 || code2 != 0 {
			t.Fatalf("runs exited %d and %d; stderr:\n%s", code, code2, stderr)
		}
		if !bytes.Contains(plain, []byte("drained at:")) || !bytes.Equal(plain, series) {
			t.Fatalf("stdout differs with -timeseries:\n%s\nvs\n%s", plain, series)
		}
	})
	t.Run("profile survives a failed metrics write", func(t *testing.T) {
		prof := filepath.Join(dir, "p.prof")
		_, stderr, code := runMain(t, "-ranks", "8", "-mb", "1", "-cpuprofile", prof,
			"-metrics", filepath.Join(dir, "missing", "m.json"))
		if code != 1 || !bytes.Contains(stderr, []byte("writing metrics")) {
			t.Fatalf("run exited %d, want 1 on the metrics write; stderr:\n%s", code, stderr)
		}
		if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
			t.Fatalf("CPU profile after the failed write: %v, %v", fi, err)
		}
	})
}
