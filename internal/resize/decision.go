package resize

// The decision log turns Algorithm 1 from a black box into an auditable
// one: every evaluation of a partition — including the ones that choose
// to do nothing — records the inputs the controller saw (windowed miss
// rate, goal, deviation, cluster free pool, shrink-regret floor, freeze
// state, period) alongside the action taken and a human-readable reason.
// The log is a bounded ring (DefaultDecisionLog entries): old decisions
// fall off, the total count keeps climbing, and recording costs a struct
// copy per resize pass — cheap enough to stay on unconditionally.
//
// Consumers: `molsim -explain-resize` dumps the tail, and the
// introspection server publishes the ring at GET /decisions.

// DefaultDecisionLog is the ring capacity.
const DefaultDecisionLog = 4096

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

// Decisions returns the retained decision log, oldest first.
func (c *Controller) Decisions() []Decision {
	out := make([]Decision, 0, len(c.decs))
	out = append(out, c.decs[c.decHead:]...)
	out = append(out, c.decs[:c.decHead]...)
	return out
}

// DecisionCount returns the total number of decisions recorded,
// including any that have fallen off the ring.
func (c *Controller) DecisionCount() uint64 { return c.decSeq }
