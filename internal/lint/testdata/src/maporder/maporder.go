// Package maporder holds fixtures for the maporder analyzer:
// map-iteration order leaking into slices, output streams, traces, or
// gauge registrations is flagged; the sorted-keys idiom and commutative
// updates are not.
package maporder

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/obs"
)

func badAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys inside a map range leaks map-iteration order`
	}
	return keys
}

func goodSortedAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func goodSlicesSort(m map[string]int) []int {
	var vals []int
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Ints(vals)
	return vals
}

func badPrint(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want `fmt.Printf inside a map range emits output in map-iteration order`
	}
}

func badWriter(m map[string]int, buf *bytes.Buffer) {
	for k := range m {
		buf.WriteString(k) // want `Buffer.WriteString inside a map range writes in map-iteration order`
	}
}

func badTracer(m map[string]int, tr *obs.Tracer) {
	for k, v := range m {
		tr.Instant("cat", k, int64(v), 0) // want `obs.Tracer.Instant inside a map range records trace events in map-iteration order`
	}
}

func badGaugeFunc(m map[string]float64, reg *obs.Registry) {
	for k, v := range m {
		v := v
		reg.GaugeFunc("pkg."+k, func() float64 { return v }) // want `obs.Registry.GaugeFunc inside a map range registers callbacks in map-iteration order`
	}
}

func goodCommutative(m map[string]int, c *obs.Counter, h *obs.Histogram, reg *obs.Registry) int {
	sum := 0
	for _, v := range m {
		sum += v
		c.Add(int64(v))
		h.Observe(float64(v))
		n := int64(v)
		reg.CounterFunc("pkg.sum.count", func() int64 { return n })
	}
	return sum
}

func goodLocalAppend(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		n += len(local)
	}
	return n
}

func goodKeyedAppend(pairs map[string][]int) map[string][]int {
	grouped := make(map[string][]int)
	for k, vs := range pairs {
		grouped[k] = append(grouped[k], vs...)
		grouped[k+".copy"] = append(grouped[k+".copy"], len(vs))
	}
	return grouped
}

func badFixedKeyAppend(m map[string]int, out map[string][]string) {
	for k := range m {
		out["all"] = append(out["all"], k) // want `append to out\["all"\] inside a map range leaks map-iteration order`
	}
}

func goodMapToMap(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func allowed(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) //lint:allow maporder -- fixture: caller sorts
	}
	return keys
}

func badChannelSend(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want `channel send inside a map range delivers values in map-iteration order`
	}
}

func badGoSpawn(m map[string]int, sink *int) {
	for k := range m {
		k := k
		go func() { // want `go statement inside a map range spawns goroutines in map-iteration order`
			*sink = len(k)
		}()
	}
}

func goodSortedHandoff(m map[string]int, ch chan string) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ch <- k
	}
}
