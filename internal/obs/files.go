package obs

import (
	"fmt"
	"io"
	"os"
	"runtime/pprof"
)

// StartCPUProfile starts a runtime/pprof CPU profile written to path and
// returns the function that stops it and closes the file; an empty path
// profiles nothing. A command stops the profile before it writes its
// other outputs, so an output that fails to write still leaves a whole
// profile. Inspect the file with go tool pprof.
func StartCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err == nil {
		if err = pprof.StartCPUProfile(f); err != nil {
			f.Close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		return nil
	}, nil
}

// WriteFiles writes a command's output files from reg and tr: the
// metrics snapshot, the latency report, the series CSV and the trace, in
// that order. An empty path skips its output, and "-" writes it to
// stdout. It stops at the first output that fails to write.
func WriteFiles(stdout io.Writer, reg *Registry, tr *Tracer, metrics, report, series, trace string) error {
	for _, o := range []struct {
		path, what string
		write      func(io.Writer) error
	}{
		{metrics, "metrics", reg.WriteJSON},
		{report, "report", func(w io.Writer) error { return WriteReport(w, reg.Snapshot()) }},
		{series, "timeseries", reg.WriteSeriesCSV},
		{trace, "trace", tr.WriteJSON},
	} {
		if o.path == "" {
			continue
		}
		if err := writeFile(o.path, stdout, o.write); err != nil {
			return fmt.Errorf("writing %s: %w", o.what, err)
		}
	}
	return nil
}

// writeFile creates path and streams write into it; "-" writes to
// stdout.
func writeFile(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if e := f.Close(); err == nil {
		err = e
	}
	return err
}
