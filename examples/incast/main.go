// Incast: reproduce TCP goodput collapse under synchronized reads from a
// growing number of storage servers, then apply the PDSI fix — a 1 ms
// minimum retransmission timeout (plus timer randomization at scale) —
// and watch goodput recover (Figure 9 of the report).
package main

import (
	"fmt"
	"strings"

	"repro/internal/incast"
)

func bar(mbps float64) string {
	n := int(mbps / 25)
	if n > 40 {
		n = 40
	}
	return strings.Repeat("#", n)
}

func main() {
	counts := []int{1, 2, 4, 8, 16, 32, 48}

	fmt.Println("synchronized reads through one 1GbE client port, 64-packet switch buffer")
	fmt.Println()
	fmt.Println("conventional 200ms minimum RTO:")
	for _, r := range incast.Sweep(counts, nil, nil, nil) {
		mbps := r.GoodputBps * 8 / 1e6
		fmt.Printf("  %3d senders %8.1f Mbps %-40s (timeouts: %d)\n",
			r.Params.Senders, mbps, bar(mbps), r.Timeouts)
	}

	fmt.Println()
	fmt.Println("1ms minimum RTO with randomized timers (the SIGCOMM'09 fix):")
	for _, r := range incast.Sweep(counts, func(p *incast.Params) {
		p.MinRTO = 1e-3
		p.RTORandomize = true
	}, nil, nil) {
		mbps := r.GoodputBps * 8 / 1e6
		fmt.Printf("  %3d senders %8.1f Mbps %-40s (timeouts: %d)\n",
			r.Params.Senders, mbps, bar(mbps), r.Timeouts)
	}

	fmt.Println()
	fmt.Println("the collapse mechanism: a sender that loses the tail of its transfer")
	fmt.Println("gets no duplicate ACKs, so only a timeout recovers it — and a 200ms")
	fmt.Println("floor idles the link for ~2000 round trips every time.")
}
