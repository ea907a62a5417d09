package molecular

import (
	"fmt"

	"molcache/internal/engine"
	"molcache/internal/faults"
	"molcache/internal/telemetry"
	"molcache/internal/trace"
)

// This file is the molecular cache's graceful-degradation layer: hard
// molecule failures retire the unit and shrink the owning region's
// replacement view (the next resize epoch re-grows it from healthy
// spares, exactly as Algorithm 1 re-grows after a withdrawal);
// transient line corruptions drop the line and refetch on next touch;
// NoC delay faults feed retry-with-backoff in the Ulmo lookup path and,
// past the retry budget, degrade the access to an uncached bypass
// instead of being fatal.

// maxNoCAttempts bounds the Ulmo's retry budget for one remote sweep.
// A fault window dropping this many attempts makes the tile unreachable
// for the access; the lookup degrades to an uncached miss.
const maxNoCAttempts = 4

// DegradationStats counts the fault events the cache absorbed.
type DegradationStats struct {
	// RetiredMolecules is the number of hard-failed molecules withdrawn
	// from service.
	RetiredMolecules uint64
	// RetirementWritebacks counts dirty lines written back while
	// flushing retired molecules.
	RetirementWritebacks uint64
	// RetirementLinesLost counts valid lines invalidated by retirement.
	RetirementLinesLost uint64
	// LineCorruptions counts transient corruptions that hit a valid line.
	LineCorruptions uint64
	// DirtyCorruptions counts corruptions that destroyed a dirty copy
	// (silent data loss a real machine would report to the OS).
	DirtyCorruptions uint64
	// NoCRetries counts Ulmo request retransmissions under delay faults.
	NoCRetries uint64
	// NoCAbandonedLookups counts remote sweeps abandoned past the retry
	// budget.
	NoCAbandonedLookups uint64
	// UncachedBypasses counts accesses served from memory without a
	// fill because degradation made caching unsafe or impossible.
	UncachedBypasses uint64
}

// AttachFaults binds a fault injector to the cache: from now on every
// access first applies the faults the campaign schedules at the current
// access count. The injector is materialized over this cache's
// geometry. Attaching nil detaches. The fault-free access path pays one
// pointer check.
func (c *Cache) AttachFaults(inj *faults.Injector) error {
	if inj == nil {
		c.faults = nil
		return nil
	}
	if err := inj.Materialize(c.TotalMolecules(), int(c.linesPerMol)); err != nil {
		return err
	}
	c.faults = inj
	return nil
}

// Faults returns the attached injector (nil when fault-free).
func (c *Cache) Faults() *faults.Injector { return c.faults }

// Degradation returns the fault-absorption counters.
func (c *Cache) Degradation() DegradationStats { return c.deg }

// RetireReport describes one molecule retirement.
type RetireReport struct {
	// Molecule is the retired unit's global ID.
	Molecule int
	// WasOwned reports whether it belonged to a region when it failed.
	WasOwned bool
	// ASID is the owning region (meaningful when WasOwned).
	ASID uint16
	// LinesLost is the number of valid lines invalidated.
	LinesLost int
	// Writebacks is the number of dirty lines written back during the
	// flush.
	Writebacks int
	// RegionSize is the owner's molecule count after the withdrawal.
	RegionSize int
}

// RetireMolecule permanently withdraws a molecule after a hard fault:
// its lines are written back and invalidated (with a back-invalidation
// event emitted for every resident line, so inclusive upper levels drop
// their copies), the owning region's replacement view shrinks around
// it, and the unit never re-enters any free pool. The next resize epoch
// re-grows the region from healthy spares.
func (c *Cache) RetireMolecule(id int) (RetireReport, error) {
	if id < 0 || id >= len(c.molsByID) {
		return RetireReport{}, fmt.Errorf("molecular: molecule %d outside [0,%d)", id, len(c.molsByID))
	}
	m := c.molsByID[id]
	if m.failed {
		return RetireReport{}, fmt.Errorf("molecular: molecule %d already retired", id)
	}
	rep := RetireReport{Molecule: id}
	if m.owned {
		r := c.regions.get(m.asid)
		rep.WasOwned = true
		rep.ASID = m.asid
		// Emit the back-invalidations before the flush destroys the
		// residency information.
		blocks := m.ValidBlocks()
		rep.LinesLost = len(blocks)
		if c.tracer != nil {
			for _, b := range blocks {
				c.tracer.Emit(telemetry.Event{
					At: c.addresses, Kind: telemetry.KindInvalidate, ASID: m.asid,
					Addr: b * c.cfg.LineSize,
				})
			}
		}
		if r != nil {
			rep.Writebacks = r.detach(m)
			rep.RegionSize = r.count
		} else {
			// Orphaned owner (should be impossible): flush directly.
			rep.Writebacks = m.flush()
			m.owned = false
			m.row = -1
		}
	} else {
		m.tile.removeFree(m)
		rep.LinesLost = len(m.ValidBlocks())
		rep.Writebacks = m.flush()
	}
	m.failed = true
	c.deg.RetiredMolecules++
	c.deg.RetirementWritebacks += uint64(rep.Writebacks)
	c.deg.RetirementLinesLost += uint64(rep.LinesLost)
	if c.tracer != nil {
		c.tracer.Emit(telemetry.Event{
			At: c.addresses, Kind: telemetry.KindMoleculeRetire, ASID: rep.ASID,
			Value: int64(id), Aux: int64(rep.RegionSize),
		})
	}
	return rep, nil
}

// CorruptLine applies a transient fault to one direct-mapped slot: the
// line (if valid) is dropped, to be refetched on its next touch. It
// reports whether a valid line was lost and whether the lost copy was
// dirty. Corrupting a retired molecule's slot is a no-op.
func (c *Cache) CorruptLine(moleculeID, line int) (wasValid, wasDirty bool, err error) {
	if moleculeID < 0 || moleculeID >= len(c.molsByID) {
		return false, false, fmt.Errorf("molecular: molecule %d outside [0,%d)", moleculeID, len(c.molsByID))
	}
	m := c.molsByID[moleculeID]
	if line < 0 || line >= len(m.lines) {
		return false, false, fmt.Errorf("molecular: line %d outside molecule of %d lines", line, len(m.lines))
	}
	if m.failed {
		return false, false, nil
	}
	tag := m.lines[line].block()
	wasValid, wasDirty = m.corrupt(line)
	if wasValid && m.owned {
		// The lost line must leave the owner's block index too, or the
		// fast path would report a phantom hit on the dropped tag.
		if r := c.regions.get(m.asid); r != nil {
			r.indexRemove(tag, m)
		}
	}
	if wasValid {
		c.deg.LineCorruptions++
		if wasDirty {
			c.deg.DirtyCorruptions++
		}
	}
	if c.tracer != nil {
		aux := int64(0)
		if wasDirty {
			aux = 1
		}
		c.tracer.Emit(telemetry.Event{
			At: c.addresses, Kind: telemetry.KindLineCorrupt, ASID: m.asid,
			Value: int64(moleculeID), Aux: aux,
		})
	}
	return wasValid, wasDirty, nil
}

// applyScheduledFaults delivers every campaign event due at the current
// access count. Individual delivery errors (a target already retired by
// an earlier event, say) are absorbed — a fault campaign must degrade
// the cache, never crash the run.
func (c *Cache) applyScheduledFaults() {
	for _, f := range c.faults.FailuresDue(c.addresses) {
		_, _ = c.RetireMolecule(f.Molecule)
	}
	for _, l := range c.faults.CorruptionsDue(c.addresses) {
		_, _, _ = c.CorruptLine(l.Molecule, l.Line)
	}
}

// ulmoTraverse accounts one Ulmo request traversal to a sibling tile
// for an access by asid's region. It applies any active NoC fault
// window — each dropped response costs a retransmission with linearly
// growing backoff, and a fault outlasting the retry budget reports the
// tile unreachable for this access.
func (c *Cache) ulmoTraverse(asid uint16) (reachable bool) {
	if c.faults == nil {
		return true
	}
	d := c.faults.NoCDelayAt(c.addresses)
	if d == nil {
		return true
	}
	attempts := d.DropAttempts + 1
	abandoned := attempts > maxNoCAttempts
	if abandoned {
		attempts = maxNoCAttempts
	}
	// Attempt a backs off a·ExtraCycles, one step longer than the last.
	var penalty uint64
	for a := 1; a <= attempts; a++ {
		penalty += d.ExtraCycles * uint64(a)
	}
	c.remote += penalty
	retries := uint64(attempts - 1)
	c.deg.NoCRetries += retries
	if abandoned {
		c.deg.NoCAbandonedLookups++
	}
	if c.tracer != nil {
		aux := int64(0)
		if abandoned {
			aux = 1
		}
		c.tracer.Emit(telemetry.Event{
			At: c.addresses, Kind: telemetry.KindNoCFault, ASID: asid,
			Value: int64(retries), Aux: aux,
		})
	}
	return !abandoned
}

// bypassMiss serves an access from memory without installing the line —
// the degradation path for a region with no molecules left, or for a
// lookup whose contributing tiles never answered (filling then could
// duplicate a line still resident remotely). All bypasses flow through
// finish, so ledger, probe-histogram and telemetry accounting is
// uniform with cached accesses.
func (c *Cache) bypassMiss(r *Region, ref trace.Ref, res *engine.Result) {
	c.deg.UncachedBypasses++
	c.finish(r, ref, res)
}
