package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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
		{"-fig", "rebuild", "-rebuild-shards", "0"},
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
