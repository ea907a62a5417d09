package resize

// The decision log turns Algorithm 1 from a black box into an auditable
// one: every evaluation of a partition — including the ones that choose
// to do nothing — records the inputs the controller saw (windowed miss
// rate, goal, deviation, cluster free pool, shrink-regret floor, freeze
// state, period) alongside the action taken and a human-readable reason.
// The log is a bounded ring (DefaultDecisionLog entries): old decisions
// fall off, the total count keeps climbing, and recording costs a struct
// copy per resize pass — cheap enough to stay on unconditionally. A pass
// records its reason as a code plus the operands the Decision does not
// already hold; the text is formatted when the log is read (Decisions)
// and kept in the ring, so each decision is formatted at most once and a
// pass that moves no molecule allocates nothing.
//
// Consumers: `molsim -explain-resize` dumps the tail, and the
// introspection server publishes the ring at GET /decisions.

import "fmt"

// DefaultDecisionLog is the ring capacity.
const DefaultDecisionLog = 4096

// reasonCode names one of the forms of a decision's reason. The zero
// code marks a decision whose text is already in Reason: rendered,
// restored from a checkpoint, or built by hand.
type reasonCode uint8

const (
	reasonRendered reasonCode = iota
	reasonUnmanaged
	reasonNoAccesses
	reasonFrozen          // argA: passes left
	reasonAuditPending    // argA: molecules granted, argB: addresses elapsed
	reasonAuditFailed     // argF: miss at mark; -Delta molecules reclaimed
	reasonAuditPassed     // argF: miss at mark
	reasonChunkRebalance  // FreeInCluster
	reasonChunk           // argA: molecules asked; Delta got
	reasonTaxShrink       // FreeInCluster, FreeGate; -Delta withdrawn
	reasonFloorHolds      // Floor, SizeBefore
	reasonMinimal         // SizeBefore
	reasonLinearRebalance // FreeInCluster
	reasonLinear          // argA: target, argB: molecules asked; Delta got
	reasonLinearMet       // argA: target
	reasonAmple           // FreeInCluster, FreeGate
	reasonLeaveAlone
)

// Decision is one audited Algorithm 1 evaluation.
type Decision struct {
	// Seq numbers decisions from 1 across the whole run; with the ring
	// bounded, Seq exposes how many fell off the front.
	Seq uint64 `json:"seq"`
	// At is the cache-wide address count when the evaluation ran.
	At uint64 `json:"at"`
	// ASID identifies the partition evaluated.
	ASID uint16 `json:"asid"`

	// Inputs the controller saw.
	MissRate       float64 `json:"miss_rate"`
	Goal           float64 `json:"goal"`
	Deviation      float64 `json:"deviation"` // MissRate - Goal
	WindowAccesses uint64  `json:"window_accesses"`
	SizeBefore     int     `json:"size_before"`
	FreeInCluster  int     `json:"free_in_cluster"`
	// FreeGate is the free-pool threshold (2 x MaxAllocation) below
	// which an under-goal partition is taxed.
	FreeGate int `json:"free_gate"`
	// Floor is the shrink-regret floor in force.
	Floor int `json:"floor"`
	// Frozen reports whether emergency growth was frozen going in.
	Frozen bool `json:"frozen,omitempty"`
	// Period is the resize period in force (per-app under the per-app
	// trigger, the shared one otherwise).
	Period uint64 `json:"period"`

	// Outcome.
	Action    Action `json:"action"`
	Delta     int    `json:"delta"`
	SizeAfter int    `json:"size_after"`
	Reason    string `json:"reason"`

	// code and its operands hold the reason until Decisions renders it.
	code       reasonCode
	argA, argB int64
	argF       float64
}

// why sets d's reason code and operands.
func (d *Decision) why(code reasonCode, a, b int64, f float64) {
	d.code, d.argA, d.argB, d.argF = code, a, b, f
}

// reasonText formats d's reason: Reason itself once rendered.
func (d *Decision) reasonText() string {
	miss, goal := d.MissRate, d.Goal
	switch d.code {
	case reasonUnmanaged:
		return "no miss-rate goal set: partition unmanaged"
	case reasonNoAccesses:
		return "no accesses in window: nothing to learn"
	case reasonFrozen:
		return fmt.Sprintf("miss %.3f > 0.5 but emergency growth frozen (%d passes left) after a failed futility audit",
			miss, d.argA)
	case reasonAuditPending:
		return fmt.Sprintf("futility audit pending: %d emergency molecules granted, judging after %d addresses (%d elapsed)",
			d.argA, uint64(auditMinAddresses), uint64(d.argB))
	case reasonAuditFailed:
		return fmt.Sprintf("futility audit failed: miss %.3f vs %.3f at mark; reclaimed %d molecules and froze emergency growth for %d passes",
			miss, d.argF, -d.Delta, freezePasses)
	case reasonAuditPassed:
		return fmt.Sprintf("futility audit passed: miss %.3f improved from %.3f at mark; emergency growth may continue",
			miss, d.argF)
	case reasonChunkRebalance:
		return fmt.Sprintf("miss %.3f > 0.5 but cluster free pool exhausted (free %d): rebalanced rows with owned molecules",
			miss, d.FreeInCluster)
	case reasonChunk:
		return fmt.Sprintf("miss %.3f > 0.5 and over goal %.3f: emergency grow by chunk (asked %d, got %d)",
			miss, goal, d.argA, d.Delta)
	case reasonTaxShrink:
		return fmt.Sprintf("miss %.3f under goal %.3f with cluster free pool low (free %d <= gate %d): withdrew sqrt-model %d molecules",
			miss, goal, d.FreeInCluster, d.FreeGate, -d.Delta)
	case reasonFloorHolds:
		return fmt.Sprintf("miss %.3f under goal %.3f but shrink-regret floor %d holds the partition at %d",
			miss, goal, d.Floor, d.SizeBefore)
	case reasonMinimal:
		return fmt.Sprintf("miss %.3f under goal %.3f but partition already minimal (%d molecules)",
			miss, goal, d.SizeBefore)
	case reasonLinearRebalance:
		return fmt.Sprintf("miss %.3f over goal %.3f but cluster free pool exhausted (free %d): rebalanced rows with owned molecules",
			miss, goal, d.FreeInCluster)
	case reasonLinear:
		return fmt.Sprintf("miss %.3f over goal %.3f: linear growth toward target %d (asked %d, got %d)",
			miss, goal, d.argA, d.argB, d.Delta)
	case reasonLinearMet:
		return fmt.Sprintf("miss %.3f over goal %.3f but linear target %d already met", miss, goal, d.argA)
	case reasonAmple:
		return fmt.Sprintf("miss %.3f under goal %.3f and cluster free pool ample (free %d > gate %d): no shrink tax",
			miss, goal, d.FreeInCluster, d.FreeGate)
	case reasonLeaveAlone:
		return fmt.Sprintf("miss %.3f meets goal %.3f: leave alone", miss, goal)
	}
	return d.Reason
}

// render stores d's reason text and drops its code and operands, so a
// rendered decision equals one restored from a checkpoint.
func (d *Decision) render() {
	if d.code != reasonRendered {
		d.Reason = d.reasonText()
		d.why(reasonRendered, 0, 0, 0)
	}
}

// record appends d to the bounded decision ring.
func (c *Controller) record(d Decision) {
	c.decSeq++
	d.Seq = c.decSeq
	if len(c.decs) < DefaultDecisionLog {
		c.decs = append(c.decs, d)
		return
	}
	c.decs[c.decHead] = d
	c.decHead = (c.decHead + 1) % DefaultDecisionLog
}

// Decisions returns the retained decision log, oldest first. The slice
// is shared and read-only. A call renders the reasons of the decisions
// recorded since the last call and copies only those, onto an
// append-only array whose earlier entries no call writes again, so the
// slices successive calls return share it, and a caller that reads the
// log for every state it collects (obs.Collect) pays for the new
// decisions, not the ring. When the array is full, the retained decisions move to a
// fresh one of twice the ring's length; slices already returned keep
// the old one.
func (c *Controller) Decisions() []Decision {
	n := len(c.decs)
	if n == 0 {
		return []Decision{}
	}
	fresh := int(min(c.decSeq-c.pubSeq, uint64(n)))
	if fresh > 0 {
		if len(c.pub)+fresh > cap(c.pub) {
			kept := c.pub[len(c.pub)-(n-fresh):]
			c.pub = append(make([]Decision, 0, 2*n), kept...)
		}
		for i := n - fresh; i < n; i++ {
			d := &c.decs[(c.decHead+i)%n]
			d.render()
			c.pub = append(c.pub, *d)
		}
		c.pubSeq = c.decSeq
	}
	end := len(c.pub)
	return c.pub[end-n : end : end]
}

// DecisionCount returns the total number of decisions recorded,
// including any that have fallen off the ring.
func (c *Controller) DecisionCount() uint64 { return c.decSeq }
