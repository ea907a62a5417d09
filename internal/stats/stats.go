// Package stats provides the counters and aggregations every cache model
// in the repository reports through: hit/miss ledgers (global and
// per-ASID), the periodic windows the resize controller reads off them,
// and simple histograms.
package stats

import (
	"fmt"
	"slices"
)

// HitMiss is a basic hit/miss counter pair.
type HitMiss struct {
	Hits   uint64
	Misses uint64
}

// Accesses returns the total number of recorded accesses.
func (h HitMiss) Accesses() uint64 { return h.Hits + h.Misses }

// MissRate returns misses/accesses, or 0 when nothing was recorded.
func (h HitMiss) MissRate() float64 {
	n := h.Accesses()
	if n == 0 {
		return 0
	}
	return float64(h.Misses) / float64(n)
}

// HitRate returns hits/accesses, or 0 when nothing was recorded.
func (h HitMiss) HitRate() float64 {
	n := h.Accesses()
	if n == 0 {
		return 0
	}
	return float64(h.Hits) / float64(n)
}

// Record adds one access with the given outcome.
func (h *HitMiss) Record(hit bool) {
	if hit {
		h.Hits++
	} else {
		h.Misses++
	}
}

func (h HitMiss) String() string {
	return fmt.Sprintf("hits=%d misses=%d missRate=%.4f", h.Hits, h.Misses, h.MissRate())
}

// DenseASIDs bounds the ASIDs whose cells live in the ledger's directly
// indexed table. Cache models name their applications with small
// consecutive ASIDs, so Record costs a bounds check and a load instead
// of a map lookup; larger ASIDs (a served tenant numbered past the
// bound, say) fall back to an overflow map. The molecular cache's ASID → region table shares the
// bound.
const DenseASIDs = 256

// Ledger tracks hit/miss counts globally and per ASID. The zero value is
// ready to use.
type Ledger struct {
	Total HitMiss
	// dense[asid] is the cell of an ASID below DenseASIDs, nil until
	// first use. The table grows on demand; the cells it points to
	// never move, so AppRef pointers survive growth.
	dense    []*HitMiss
	overflow map[uint16]*HitMiss
}

// Record adds one access for the given ASID.
func (l *Ledger) Record(asid uint16, hit bool) {
	l.Total.Record(hit)
	l.AppRef(asid).Record(hit)
}

// AppRef returns the stable counter cell for one ASID, creating it if
// needed. The pointer stays valid for the ledger's lifetime; hot paths
// cache it so a per-access Record needs no lookup at all (the caller
// must still bump Total itself).
func (l *Ledger) AppRef(asid uint16) *HitMiss {
	if int(asid) < len(l.dense) && l.dense[asid] != nil {
		return l.dense[asid]
	}
	return l.newCell(asid)
}

// newCell is AppRef's slow path: the first use of an ASID, or any use of
// an ASID beyond the dense table.
func (l *Ledger) newCell(asid uint16) *HitMiss {
	if asid >= DenseASIDs {
		if l.overflow == nil {
			l.overflow = make(map[uint16]*HitMiss)
		}
		hm := l.overflow[asid]
		if hm == nil {
			hm = &HitMiss{}
			l.overflow[asid] = hm
		}
		return hm
	}
	if int(asid) >= len(l.dense) {
		n := 16
		for n <= int(asid) {
			n <<= 1
		}
		grown := make([]*HitMiss, n)
		copy(grown, l.dense)
		l.dense = grown
	}
	hm := &HitMiss{}
	l.dense[asid] = hm
	return hm
}

// App returns the counters for one ASID (zero value if never seen).
func (l *Ledger) App(asid uint16) HitMiss {
	var hm *HitMiss
	if int(asid) < len(l.dense) {
		hm = l.dense[asid]
	} else {
		hm = l.overflow[asid]
	}
	if hm == nil {
		return HitMiss{}
	}
	return *hm
}

// ASIDs returns the sorted list of ASIDs with recorded accesses.
func (l *Ledger) ASIDs() []uint16 {
	ids := make([]uint16, 0, len(l.dense)+len(l.overflow))
	for id, hm := range l.dense {
		if hm != nil {
			ids = append(ids, uint16(id))
		}
	}
	// Every overflow ASID is above every dense one.
	n := len(ids)
	for id := range l.overflow {
		ids = append(ids, id)
	}
	slices.Sort(ids[n:])
	return ids
}

// SetApp overwrites the counters for one ASID, creating the cell if
// needed. Restore paths use it to rebuild a ledger from a checkpoint;
// the returned pointer is the same stable cell AppRef would hand out.
func (l *Ledger) SetApp(asid uint16, hm HitMiss) *HitMiss {
	cell := l.AppRef(asid)
	*cell = hm
	return cell
}

// Window reads a running hit/miss count, recorded elsewhere, in
// periods: it keeps the count at its last Roll (the mark), so reading
// the window subtracts and rolling moves the mark. The resize
// controller reads and rolls one per partition, over the partition's
// ledger cell, and one over the ledger total, every resize period.
type Window struct {
	count *HitMiss
	mark  HitMiss
}

// NewWindow returns an empty window over count.
func NewWindow(count *HitMiss) Window { return Window{count: count, mark: *count} }

// Snapshot returns the counts recorded since the last Roll.
func (w *Window) Snapshot() HitMiss {
	return HitMiss{Hits: w.count.Hits - w.mark.Hits, Misses: w.count.Misses - w.mark.Misses}
}

// Roll returns the counts recorded since the last Roll and starts a
// fresh window.
func (w *Window) Roll() HitMiss {
	out := w.Snapshot()
	w.mark = *w.count
	return out
}

// Restore makes the window hold hm, counts a checkpoint captured since
// the last Roll, by setting the mark hm below the running count. It
// refuses an hm the count does not contain.
func (w *Window) Restore(hm HitMiss) error {
	if hm.Hits > w.count.Hits || hm.Misses > w.count.Misses {
		return fmt.Errorf("stats: window %v exceeds its count %v", hm, *w.count)
	}
	w.mark = HitMiss{Hits: w.count.Hits - hm.Hits, Misses: w.count.Misses - hm.Misses}
	return nil
}

// Histogram is a fixed-bucket counter for small non-negative integers
// (e.g. probes per access). Values beyond the last bucket land in it.
type Histogram struct {
	Buckets []uint64
	Count   uint64
	Sum     uint64
}

// NewHistogram returns a histogram with n buckets for values 0..n-1;
// values >= n-1 are clamped into the final bucket.
func NewHistogram(n int) *Histogram {
	return &Histogram{Buckets: make([]uint64, n)}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := v
	if i >= uint64(len(h.Buckets)) {
		i = uint64(len(h.Buckets) - 1)
	}
	h.Buckets[i]++
	h.Count++
	h.Sum += v
}

// Mean returns the average observed value.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}
