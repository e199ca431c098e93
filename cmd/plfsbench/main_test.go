package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), "PLFSBENCH_MAIN=1")
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
