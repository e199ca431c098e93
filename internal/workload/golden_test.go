package workload

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/obs"
)

// TestFaultFreeRunMatchesGolden pins the fault-free trajectory and the
// snapshot's shape: a fault-free, checksums-off run must serialize a
// metrics snapshot byte-identical to testdata/golden_fault_free_metrics.json.
// The fault and integrity counters are registered and read zero. If this
// fails, disabled-by-default machinery leaked into the clean path (an
// extra event scheduled, a perturbed service time, a counter that moved)
// or the set of registered metrics changed.
func TestFaultFreeRunMatchesGolden(t *testing.T) {
	const path = "testdata/golden_fault_free_metrics.json"
	cfg, spec := goldenSpec()
	reg := obs.NewRegistry()
	Run(cfg, spec, reg, nil)
	var got bytes.Buffer
	if err := reg.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if *updateGoldens {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("fault-free snapshot diverged from its golden:\ngot %d bytes, want %d bytes\n%s",
			got.Len(), len(want), firstDiff(got.Bytes(), want))
	}
}

// firstDiff returns a short context window around the first differing
// byte, for a readable failure message.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			hi := i + 80
			if hi > n {
				hi = n
			}
			return "got  ..." + string(a[lo:hi]) + "...\nwant ..." + string(b[lo:hi]) + "..."
		}
	}
	return "lengths differ only"
}
