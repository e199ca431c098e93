package flash

import "repro/internal/obs"

// Observability for the FTL. A Device is a synchronous model (callers
// add its returned latencies to their own sim clocks); it keeps its
// counts in its Counts whether or not it is instrumented, and
// Instrument registers functions over them that the registry evaluates
// at snapshot time. The functions capture the Counts, never the
// Device, so a finished device's blocks and mapping are freed while its
// counts stay readable.

// Instrument registers the device's FTL probes under the given metric
// prefix (e.g. "flash.dev00"): host page reads/writes, GC invocations,
// page relocations, block erases, and gauges for the pre-erased pool
// depth, write amplification, and peak wear. A no-op on a nil registry.
func (d *Device) Instrument(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	c := d.Counts
	reg.CounterFunc(prefix+".page_writes", func() int64 { return c.HostWrites })
	reg.CounterFunc(prefix+".page_reads", func() int64 { return c.HostReads })
	reg.CounterFunc(prefix+".gc_collections", func() int64 { return c.collections })
	reg.CounterFunc(prefix+".gc_relocations", func() int64 { return c.Relocations })
	reg.CounterFunc(prefix+".erases", func() int64 { return c.Erases })
	reg.GaugeFunc(prefix+".pool_depth", func() float64 { return float64(c.pool) })
	reg.GaugeFunc(prefix+".write_amp", c.WriteAmplification)
	reg.GaugeFunc(prefix+".max_wear", func() float64 { return float64(c.maxWear) })
}
