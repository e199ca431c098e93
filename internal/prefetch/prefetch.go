// Package prefetch implements the ORNL close-out work on Global
// Multi-order Context-based (GMC) prefetching (§5.4.2 of the report;
// Chen, Zhu, Jin & Sun, P2S2'10): predicting a process's next block
// accesses from variable-length access contexts. A single-order
// (Markov-1) predictor misses patterns that only longer histories
// disambiguate — interleaved strided streams, nested loops — so GMC keeps
// context tables of several orders and predicts from the longest matching
// context, increasing prefetching *coverage* while maintaining *accuracy*.
package prefetch

import (
	"fmt"
)

// Predictor is a multi-order context model over block ids. Order k maps
// each observed k-gram of accesses to a frequency table of successors.
type Predictor struct {
	maxOrder int
	// tables[k] maps a context key of length k+1 to successor counts.
	tables []map[string]map[int64]int
	// history holds the most recent accesses, newest last.
	history []int64

	Predictions  int64 // times a prediction was made
	Hits         int64 // predictions matching the next access
	Misses       int64 // predictions that were wrong
	NoPrediction int64 // accesses where no context matched
}

// New returns a predictor using contexts of length 1..maxOrder.
func New(maxOrder int) *Predictor {
	if maxOrder < 1 {
		panic(fmt.Sprintf("prefetch: maxOrder %d < 1", maxOrder))
	}
	p := &Predictor{maxOrder: maxOrder}
	p.tables = make([]map[string]map[int64]int, maxOrder)
	for k := range p.tables {
		p.tables[k] = make(map[string]map[int64]int)
	}
	return p
}

// key encodes a context window compactly.
func key(window []int64) string {
	b := make([]byte, 0, len(window)*9)
	for _, v := range window {
		for i := 0; i < 8; i++ {
			b = append(b, byte(v>>(8*i)))
		}
		b = append(b, ':')
	}
	return string(b)
}

// Predict returns the predicted next block and true, or 0 and false when
// no context of any order has been seen. The longest matching context
// wins; ties within a table break toward the most frequent successor,
// then the smallest block id (deterministic).
func (p *Predictor) Predict() (int64, bool) {
	for k := min(p.maxOrder, len(p.history)); k >= 1; k-- {
		ctx := key(p.history[len(p.history)-k:])
		succ, ok := p.tables[k-1][ctx]
		if !ok || len(succ) == 0 {
			continue
		}
		var best int64
		bestCount := -1
		for blk, count := range succ {
			if count > bestCount || (count == bestCount && blk < best) {
				best, bestCount = blk, count
			}
		}
		return best, true
	}
	return 0, false
}

// Observe records an access, scoring any outstanding prediction first and
// updating every order's context table.
func (p *Predictor) Observe(block int64) {
	if pred, ok := p.Predict(); ok {
		p.Predictions++
		if pred == block {
			p.Hits++
		} else {
			p.Misses++
		}
	} else if len(p.history) > 0 {
		p.NoPrediction++
	}
	// Update tables for each context length ending at the previous access.
	for k := 1; k <= min(p.maxOrder, len(p.history)); k++ {
		ctx := key(p.history[len(p.history)-k:])
		succ := p.tables[k-1][ctx]
		if succ == nil {
			succ = make(map[int64]int)
			p.tables[k-1][ctx] = succ
		}
		succ[block]++
	}
	p.history = append(p.history, block)
	if len(p.history) > p.maxOrder {
		p.history = p.history[len(p.history)-p.maxOrder:]
	}
}

// Accuracy is hits / predictions; Coverage is hits / all accesses that had
// a predecessor (the fraction of I/Os a prefetcher would have hidden).
func (p *Predictor) Accuracy() float64 {
	if p.Predictions == 0 {
		return 0
	}
	return float64(p.Hits) / float64(p.Predictions)
}

// Coverage returns the fraction of predictable accesses that were hit.
func (p *Predictor) Coverage() float64 {
	total := p.Predictions + p.NoPrediction
	if total == 0 {
		return 0
	}
	return float64(p.Hits) / float64(total)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Metrics evaluates a predictor over a block stream.
type Metrics struct {
	Order    int
	Accuracy float64
	Coverage float64
}

// Evaluate replays the stream through a fresh predictor of the given order.
func Evaluate(stream []int64, order int) Metrics {
	p := New(order)
	for _, b := range stream {
		p.Observe(b)
	}
	return Metrics{Order: order, Accuracy: p.Accuracy(), Coverage: p.Coverage()}
}

// MixedPhases builds the access stream that defeats order-1 prediction:
// the same block region is read in alternating phases with different
// orders — a sequential pass, then a strided pass — repeated `passes`
// times (a timestep loop whose analysis re-reads its dump differently).
// After block 0 the successor is 1 in a sequential phase but `stride` in
// a strided phase; only a longer context disambiguates which phase is
// running.
func MixedPhases(blocks int, stride int, passes int) []int64 {
	var out []int64
	for p := 0; p < passes; p++ {
		// Sequential phase.
		for i := 0; i < blocks; i++ {
			out = append(out, int64(i))
		}
		// Strided phase touching the same blocks in permuted order.
		for lane := 0; lane < stride; lane++ {
			for i := lane; i < blocks; i += stride {
				out = append(out, int64(i))
			}
		}
	}
	return out
}
