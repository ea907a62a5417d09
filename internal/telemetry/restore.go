package telemetry

import (
	"fmt"
	"math"
	"sort"
)

// LoadSnapshot overwrites the registry's instruments with the values of
// a previously exported Snapshot — the checkpoint-restore inverse of
// AtomicSnapshot. Only the counters, gauges and histograms the registry
// holds are loaded; every other name is ignored, as a checkpoint's JSON
// ignores the keys of state the simulator no longer keeps. That covers
// metrics the running build has deleted and names it now serves from
// funcs, which read the restored simulation state instead. Restore
// paths therefore attach instrumentation (registering the instruments
// and funcs) before calling LoadSnapshot.
//
// Unlike the lookup methods, LoadSnapshot never panics on bad input —
// snapshots may come from corrupted checkpoint files — and instead
// returns an error naming the offending histogram: a malformed one, or
// a registered one whose bounds differ. On error the registry may be
// partially loaded; callers treating that as fatal should discard the
// registry.
func (r *Registry) LoadSnapshot(s Snapshot) error {
	if r == nil {
		return fmt.Errorf("telemetry: cannot load a snapshot into a nil registry")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, v := range s.Counters {
		if c, ok := r.counters[name]; ok {
			c.v.Store(v)
		}
	}
	for name, v := range s.Gauges {
		if g, ok := r.gauges[name]; ok {
			g.bits.Store(math.Float64bits(v))
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		hs := s.Histograms[name]
		bounds, perBucket, err := decodeHistogramSnapshot(hs)
		if err != nil {
			return fmt.Errorf("telemetry: histogram %q: %w", name, err)
		}
		h, ok := r.hists[name]
		if !ok {
			continue
		}
		if !boundsEqual(h.bounds, bounds) {
			return fmt.Errorf("telemetry: histogram %q: snapshot bounds %v do not match registered bounds %v",
				name, bounds, h.bounds)
		}
		for i := range h.buckets {
			h.buckets[i].Store(perBucket[i])
		}
		h.count.Store(hs.Count)
		h.sumBits.Store(math.Float64bits(hs.Sum))
	}
	return nil
}

// decodeHistogramSnapshot inverts Histogram.snapshot: it recovers the
// bucket bounds and the per-bucket (non-cumulative) counts, validating
// the shape a genuine snapshot always has.
func decodeHistogramSnapshot(hs HistogramSnapshot) (bounds []float64, perBucket []uint64, err error) {
	if len(hs.Buckets) == 0 {
		return nil, nil, fmt.Errorf("no buckets")
	}
	last := hs.Buckets[len(hs.Buckets)-1]
	if !math.IsInf(last.UpperBound, +1) {
		return nil, nil, fmt.Errorf("final bucket bound %v is not +Inf", last.UpperBound)
	}
	bounds = make([]float64, len(hs.Buckets)-1)
	perBucket = make([]uint64, len(hs.Buckets))
	var prev uint64
	for i, b := range hs.Buckets {
		if i < len(bounds) {
			bounds[i] = b.UpperBound
			if i > 0 && bounds[i] <= bounds[i-1] {
				return nil, nil, fmt.Errorf("bounds not strictly increasing at %d: %v", i, bounds)
			}
		}
		if b.Count < prev {
			return nil, nil, fmt.Errorf("cumulative counts decrease at bucket %d (%d -> %d)", i, prev, b.Count)
		}
		perBucket[i] = b.Count - prev
		prev = b.Count
	}
	if last.Count != hs.Count {
		return nil, nil, fmt.Errorf("+Inf bucket count %d does not equal observation count %d", last.Count, hs.Count)
	}
	return bounds, perBucket, nil
}

// boundsEqual compares bucket bounds exactly (bounds are configuration,
// not measurements, so bitwise equality is the right test).
func boundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortedKeys returns a map's keys in sorted order so restore touches
// instruments deterministically (and errors pick a stable culprit).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
