// Telemetry: trace a resizing run and read the live metrics.
// A two-phase workload blows its miss-rate goal mid-run; the tracer
// captures every region event and resize decision as structured events
// (held in an in-memory sink here; use a JSONLSink over a file in a
// real harness), and the registry's counters, gauges and histograms
// export as a Prometheus text page. Every metric is a view over counts
// the simulator keeps, read when the snapshot is taken, so the attached
// registry adds nothing to an access.
package main

import (
	"fmt"
	"log"

	"molcache"
)

func main() {
	sim, err := molcache.NewSimulator(
		molcache.MolecularConfig{TotalSize: 2 << 20, Policy: molcache.Randy, Seed: 7},
		molcache.ResizeConfig{
			Period:      10_000,
			Trigger:     molcache.AdaptiveGlobalTrigger,
			DefaultGoal: 0.10,
		},
	)
	if err != nil {
		log.Fatal(err)
	}

	// Attach a tracer (ring of the last 4096 events, all of them also
	// fanned into a memory sink) and a metrics registry.
	tracer := molcache.NewTracer(0)
	sink := molcache.NewMemorySink()
	tracer.SetSink(sink)
	reg := molcache.NewRegistry()
	sim.AttachTelemetry(tracer, reg)

	// Phase 1: a 128KB working set, comfortably under the goal.
	// Phase 2: jump to 1MB — the goal is blown and Algorithm 1 grows
	// the partition, emitting region-grow and resize events.
	var pos uint64
	phase := func(span uint64, n int) {
		for i := 0; i < n; i++ {
			sim.Access(molcache.Ref{Addr: pos % span, ASID: 1, Kind: molcache.Read})
			pos += 64
		}
	}
	phase(128<<10, 150_000)
	phase(1<<20, 450_000)

	// The event stream: region lifecycle and resize decisions among the
	// per-access events.
	fmt.Println("traced events (region and resize only):")
	shown := 0
	for _, ev := range sink.Events() {
		if ev.Kind == molcache.KindAccess {
			continue
		}
		fmt.Printf("  seq=%-6d @%-8d %-16s asid=%d delta=%+d size=%d %s\n",
			ev.Seq, ev.At, ev.Kind, ev.ASID, ev.Value, ev.Aux, ev.Detail)
		if shown++; shown >= 12 {
			fmt.Printf("  ... (%d events total, %d in the ring)\n",
				tracer.Emitted(), len(tracer.Events()))
			break
		}
	}

	// The metrics registry: a point-in-time snapshot, exported as
	// Prometheus text.
	snap := reg.Snapshot()
	fmt.Println("\nmetrics snapshot (Prometheus text format):")
	fmt.Print(snap.PrometheusString())

	fmt.Printf("\nhit ratio from the counters: %.3f\n",
		float64(snap.Counters["molcache_molecular_hits_total"])/
			float64(snap.Counters["molcache_molecular_hits_total"]+
				snap.Counters["molcache_molecular_misses_total"]))
}
