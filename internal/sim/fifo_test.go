package sim

import (
	"math/rand"
	"testing"
)

// TestFIFOMatchesSliceQueue drives a FIFO and a plain slice queue with
// the same random pushes and pops, across ring wrap-arounds and growth:
// they must hold the same elements in the same order.
func TestFIFOMatchesSliceQueue(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var q FIFO[int]
	var want []int
	for i := 0; i < 10000; i++ {
		if len(want) == 0 || r.Intn(3) > 0 && len(want) < 100 {
			q.Push(i)
			want = append(want, i)
		} else {
			if got := q.Front(); got != want[0] {
				t.Fatalf("step %d: Front = %d, want %d", i, got, want[0])
			}
			if got := q.Pop(); got != want[0] {
				t.Fatalf("step %d: Pop = %d, want %d", i, got, want[0])
			}
			want = want[1:]
		}
		if q.Len() != len(want) {
			t.Fatalf("step %d: Len = %d, want %d", i, q.Len(), len(want))
		}
	}
}
