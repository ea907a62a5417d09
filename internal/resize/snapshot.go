package resize

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// This file is the controller's checkpoint layer. Everything Algorithm 1
// consults between passes is serialized: the shared period/trigger
// cursor, the per-application state (shrink-regret floors, futility
// audit marks, freeze counters, per-app periods), the daemon cycle
// account, the bounded decision ring and the per-action decision
// counts. Restore validates untrusted input and returns errors, never
// panics — corrupted checkpoints must degrade to a cold start, not kill
// the run.

// AppSnap is one application's serialized controller state, mirroring
// appState field for field.
type AppSnap struct {
	ASID          uint16  `json:"asid"`
	LastAction    Action  `json:"last_action"`
	LastAlloc     int     `json:"last_alloc"`
	MaxAlloc      int     `json:"max_alloc"`
	Floor         int     `json:"floor"`
	PreShrink     int     `json:"pre_shrink"`
	FloorAge      int     `json:"floor_age"`
	ShrinkAge     int     `json:"shrink_age"`
	RebalanceCool int     `json:"rebalance_cool"`
	GrowSinceMark int     `json:"grow_since_mark"`
	MissAtMark    float64 `json:"miss_at_mark"`
	MarkAt        uint64  `json:"mark_at"`
	Frozen        int     `json:"frozen"`
	Period        uint64  `json:"period"`
	NextAt        uint64  `json:"next_at"`
}

// ControllerState is the controller's complete serialized runtime state.
// The Config is not repeated here; the caller reconstructs the
// controller with the same Config and then restores this state onto it.
type ControllerState struct {
	Period uint64    `json:"period"`
	NextAt uint64    `json:"next_at"`
	Cycles uint64    `json:"cycles"`
	Apps   []AppSnap `json:"apps"`
	// Decisions is the ring's contents oldest-first (as Decisions()
	// returns them); DecisionSeq is the lifetime count, and Actions
	// splits it by action.
	Decisions   []Decision        `json:"decisions"`
	DecisionSeq uint64            `json:"decision_seq"`
	Actions     map[Action]uint64 `json:"actions"`
}

// Config returns the controller's (defaulted) configuration — the one
// a restore must rebuild the controller with.
func (c *Controller) Config() Config { return c.cfg }

// CaptureState serializes the controller's runtime state (apps in ASID
// order, decisions oldest-first).
func (c *Controller) CaptureState() ControllerState {
	st := ControllerState{
		Period:      c.period,
		NextAt:      c.nextAt,
		Cycles:      c.cycles,
		Decisions:   slices.Clone(c.Decisions()), // the log is shared; a checkpoint owns its copy
		DecisionSeq: c.decSeq,
		Actions:     maps.Clone(c.actions),
	}
	asids := make([]uint16, 0, len(c.apps))
	for asid := range c.apps {
		asids = append(asids, asid)
	}
	sort.Slice(asids, func(i, j int) bool { return asids[i] < asids[j] })
	for _, asid := range asids {
		s := c.apps[asid]
		st.Apps = append(st.Apps, AppSnap{
			ASID: asid, LastAction: s.lastAction, LastAlloc: s.lastAlloc, MaxAlloc: s.maxAlloc,
			Floor: s.floor, PreShrink: s.preShrink, FloorAge: s.floorAge,
			ShrinkAge: s.shrinkAge, RebalanceCool: s.rebalanceCool,
			GrowSinceMark: s.growSinceMark, MissAtMark: s.missAtMark,
			MarkAt: s.markAt, Frozen: s.frozen,
			Period: s.period, NextAt: s.nextAt,
		})
	}
	return st
}

// RestoreState overwrites the controller's runtime state with a captured
// one. The controller must be freshly built (New) with the same Config
// that produced the capture. Validation rejects states a healthy
// controller cannot reach.
func (c *Controller) RestoreState(st ControllerState) error {
	if st.Period < c.cfg.MinPeriod || st.Period > c.cfg.MaxPeriod {
		// Constant triggers never adapt, so only the adaptive triggers
		// are bound by the clamp range.
		if c.cfg.Trigger != Constant {
			return fmt.Errorf("resize: restore: period %d outside [%d,%d]",
				st.Period, c.cfg.MinPeriod, c.cfg.MaxPeriod)
		}
	}
	if uint64(len(st.Decisions)) > st.DecisionSeq {
		return fmt.Errorf("resize: restore: %d retained decisions exceed lifetime count %d",
			len(st.Decisions), st.DecisionSeq)
	}
	if len(st.Decisions) > DefaultDecisionLog {
		return fmt.Errorf("resize: restore: %d retained decisions exceed ring capacity %d",
			len(st.Decisions), DefaultDecisionLog)
	}
	// A checkpoint without action counts restores them as zero.
	actions := make(map[Action]uint64, len(allActions))
	var decided uint64
	for _, a := range allActions {
		if n, ok := st.Actions[a]; ok {
			actions[a] = n
			decided += n
		}
	}
	if len(actions) != len(st.Actions) {
		return fmt.Errorf("resize: restore: action counts name an unknown action")
	}
	if decided > st.DecisionSeq {
		return fmt.Errorf("resize: restore: action counts total %d decisions, more than the lifetime count %d",
			decided, st.DecisionSeq)
	}
	apps := make(map[uint16]*appState, len(st.Apps))
	prev := -1
	for i := range st.Apps {
		a := &st.Apps[i]
		if int(a.ASID) <= prev {
			return fmt.Errorf("resize: restore: app states not in ascending ASID order at %d", a.ASID)
		}
		prev = int(a.ASID)
		if a.LastAction != "" && !slices.Contains(allActions[:], a.LastAction) {
			return fmt.Errorf("resize: restore: app %d has unknown last action %q", a.ASID, a.LastAction)
		}
		if a.MaxAlloc < 0 || a.Floor < 0 || a.Frozen < 0 || a.GrowSinceMark < 0 {
			return fmt.Errorf("resize: restore: app %d has negative counters", a.ASID)
		}
		apps[a.ASID] = &appState{
			lastAction: a.LastAction, lastAlloc: a.LastAlloc, maxAlloc: a.MaxAlloc,
			floor: a.Floor, preShrink: a.PreShrink, floorAge: a.FloorAge,
			shrinkAge: a.ShrinkAge, rebalanceCool: a.RebalanceCool,
			growSinceMark: a.GrowSinceMark, missAtMark: a.MissAtMark,
			markAt: a.MarkAt, frozen: a.Frozen,
			period: a.Period, nextAt: a.NextAt,
		}
	}
	c.period = st.Period
	c.nextAt = st.NextAt
	c.cycles = st.Cycles
	c.apps = apps
	c.actions = actions
	// The ring is reloaded linearized: head 0, oldest first. Decisions()
	// re-linearizes on read, so the external view is unchanged.
	c.decs = append([]Decision(nil), st.Decisions...)
	c.decHead = 0
	c.decSeq = st.DecisionSeq
	c.pub, c.pubSeq = nil, c.decSeq-uint64(len(c.decs))
	return nil
}
