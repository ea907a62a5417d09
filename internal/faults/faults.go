// Package faults is the simulator's deterministic fault model. A
// molecular cache's premise — an L2 aggregated from many small
// independent units — makes it a natural substrate for fault tolerance:
// a failed molecule can be retired and its region resized around it,
// exactly the way Algorithm 1 withdraws molecules under a miss-rate
// goal. This package supplies the faults to tolerate.
//
// A Campaign is a schedule of three fault classes:
//
//   - hard molecule failures (the molecule is permanently retired);
//   - transient line corruptions (one line's contents are lost, as if
//     an uncorrectable ECC error invalidated it);
//   - NoC response delays (a window during which Ulmo sweeps of remote
//     tiles are slowed or dropped and must retry with backoff).
//
// Every event is driven by the cache's access count, never wall-clock
// time, so a campaign replayed over the same trace reproduces the same
// faults at the same instants. Campaigns are written explicitly or
// expanded from seeded random specs; either way the expansion is a pure
// function of the campaign, so runs are bit-for-bit reproducible.
//
// The package knows nothing about the cache model; internal/molecular
// consumes the Injector and applies the scheduled faults to itself.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"molcache/internal/rng"
)

// MoleculeFailure schedules a permanent (hard) failure of one molecule.
type MoleculeFailure struct {
	// At is the cache-wide access count at which the molecule fails.
	At uint64 `json:"at"`
	// Molecule is the global molecule ID.
	Molecule int `json:"molecule"`
}

// LineCorruption schedules a transient single-line corruption: the line
// in the given direct-mapped slot is invalidated (an uncorrectable-ECC
// model — the data is lost, a dirty copy silently so).
type LineCorruption struct {
	// At is the cache-wide access count at which the corruption strikes.
	At uint64 `json:"at"`
	// Molecule is the global molecule ID.
	Molecule int `json:"molecule"`
	// Line is the direct-mapped slot index within the molecule.
	Line int `json:"line"`
}

// NoCDelay schedules a window of degraded interconnect service: Ulmo
// lookups of sibling tiles inside [At, At+Duration) have their first
// DropAttempts responses dropped (each costing a retry) and every
// attempt pays ExtraCycles of added latency.
type NoCDelay struct {
	// At is the first access count inside the window.
	At uint64 `json:"at"`
	// Duration is the window length in accesses (0 means one access).
	Duration uint64 `json:"duration"`
	// ExtraCycles is added latency per traversal attempt.
	ExtraCycles uint64 `json:"extra_cycles"`
	// DropAttempts is how many attempts are dropped before one succeeds.
	// At or beyond the consumer's retry budget the lookup is abandoned.
	DropAttempts int `json:"drop_attempts"`
}

// RandomSpec expands into Count events with access counts drawn
// uniformly from [Start, End) and targets drawn uniformly from the
// bound population (molecules, or molecule/line pairs). The expansion
// is a pure function of the campaign seed, so two runs of the same
// campaign schedule identical faults.
type RandomSpec struct {
	// Count is the number of events to generate.
	Count int `json:"count"`
	// Start and End bound the access counts ([Start, End)).
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
}

// Campaign is a full fault schedule, parsable from JSON.
type Campaign struct {
	// Seed drives the random expansions (and only those).
	Seed uint64 `json:"seed"`

	// MoleculeFailures are explicitly scheduled hard failures.
	MoleculeFailures []MoleculeFailure `json:"molecule_failures,omitempty"`
	// RandomMoleculeFailures adds seeded-random hard failures over
	// distinct molecules.
	RandomMoleculeFailures *RandomSpec `json:"random_molecule_failures,omitempty"`

	// LineCorruptions are explicitly scheduled transient corruptions.
	LineCorruptions []LineCorruption `json:"line_corruptions,omitempty"`
	// RandomLineCorruptions adds seeded-random corruptions.
	RandomLineCorruptions *RandomSpec `json:"random_line_corruptions,omitempty"`

	// NoCDelays are interconnect degradation windows.
	NoCDelays []NoCDelay `json:"noc_delays,omitempty"`
}

// Parse decodes a JSON campaign, rejecting unknown fields so a typo in
// a schedule fails loudly instead of silently injecting nothing.
func Parse(data []byte) (Campaign, error) {
	var c Campaign
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Campaign{}, fmt.Errorf("faults: bad campaign JSON: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Campaign{}, err
	}
	return c, nil
}

// Load reads and parses a campaign file.
func Load(path string) (Campaign, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Campaign{}, fmt.Errorf("faults: %w", err)
	}
	return Parse(data)
}

// ValidationError reports one invalid value in a campaign, with enough
// context to point at the offending JSON: the schedule section, the
// entry index within it (-1 for section-level problems such as a random
// spec's window), the field name, and a human-readable reason.
type ValidationError struct {
	// Section is the campaign JSON key, e.g. "noc_delays".
	Section string
	// Index is the entry's position within the section, or -1 when the
	// problem is with the section as a whole.
	Index int
	// Field is the offending JSON field within the entry.
	Field string
	// Reason explains what is wrong with the value.
	Reason string
}

func (e *ValidationError) Error() string {
	if e.Index >= 0 {
		return fmt.Sprintf("faults: %s[%d].%s: %s", e.Section, e.Index, e.Field, e.Reason)
	}
	return fmt.Sprintf("faults: %s.%s: %s", e.Section, e.Field, e.Reason)
}

// Validate checks the campaign's internal consistency. Target bounds
// (molecule IDs, line indices) are checked later, at Materialize, when
// the cache geometry is known. A failure is always a *ValidationError
// naming the section, entry index and field.
func (c Campaign) Validate() error {
	for i, f := range c.MoleculeFailures {
		if f.Molecule < 0 {
			return &ValidationError{
				Section: "molecule_failures", Index: i, Field: "molecule",
				Reason: fmt.Sprintf("negative molecule %d", f.Molecule),
			}
		}
	}
	for i, l := range c.LineCorruptions {
		if l.Molecule < 0 {
			return &ValidationError{
				Section: "line_corruptions", Index: i, Field: "molecule",
				Reason: fmt.Sprintf("negative molecule %d", l.Molecule),
			}
		}
		if l.Line < 0 {
			return &ValidationError{
				Section: "line_corruptions", Index: i, Field: "line",
				Reason: fmt.Sprintf("negative line %d", l.Line),
			}
		}
	}
	for i, d := range c.NoCDelays {
		if d.ExtraCycles == 0 && d.DropAttempts == 0 {
			return &ValidationError{
				Section: "noc_delays", Index: i, Field: "extra_cycles",
				Reason: "neither extra cycles nor dropped attempts; the window would be a no-op",
			}
		}
		if d.DropAttempts < 0 {
			return &ValidationError{
				Section: "noc_delays", Index: i, Field: "drop_attempts",
				Reason: fmt.Sprintf("negative drop_attempts %d", d.DropAttempts),
			}
		}
	}
	for _, spec := range []struct {
		name string
		s    *RandomSpec
	}{
		{"random_molecule_failures", c.RandomMoleculeFailures},
		{"random_line_corruptions", c.RandomLineCorruptions},
	} {
		name, s := spec.name, spec.s
		if s == nil {
			continue
		}
		if s.Count < 0 {
			return &ValidationError{
				Section: name, Index: -1, Field: "count",
				Reason: fmt.Sprintf("negative count %d", s.Count),
			}
		}
		if s.Count > 0 && s.End <= s.Start {
			return &ValidationError{
				Section: name, Index: -1, Field: "end",
				Reason: fmt.Sprintf("empty window [%d, %d)", s.Start, s.End),
			}
		}
	}
	return nil
}

// Stats counts faults the injector has handed out.
type Stats struct {
	// MoleculeFailures is the number of hard failures delivered.
	MoleculeFailures uint64
	// LineCorruptions is the number of corruptions delivered.
	LineCorruptions uint64
	// NoCDelayedLookups counts remote lookups that hit a delay window.
	NoCDelayedLookups uint64
	// SkippedOutOfRange counts scheduled events dropped at Materialize
	// because their target lies outside the cache's geometry.
	SkippedOutOfRange uint64
}

// Injector delivers a campaign's faults in access-count order. It is a
// single-consumer cursor: the cache asks, once per access, for the
// events due at the current count. A nil *Injector is a valid no-op.
type Injector struct {
	//molvet:transient the campaign is re-supplied at restore; only the cursors persist
	campaign Campaign

	//molvet:transient derived by materialize from the campaign
	materialized bool
	//molvet:transient derived by materialize from the campaign
	failures []MoleculeFailure // sorted by At
	//molvet:transient derived by materialize from the campaign
	corruptions []LineCorruption // sorted by At
	//molvet:transient derived by materialize from the campaign
	delays []NoCDelay // sorted by At

	failCursor    int
	corruptCursor int

	stats Stats
}

// NewInjector builds an injector for the (validated) campaign. Random
// specs are expanded at Materialize, when the cache geometry is known;
// until then only the explicit schedules exist.
func NewInjector(c Campaign) (*Injector, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &Injector{campaign: c}, nil
}

// Materialize binds the injector to a cache geometry: random specs are
// expanded over [0, totalMolecules) x [0, linesPerMolecule), explicit
// events with out-of-range targets are dropped (counted in Stats), and
// all schedules are sorted by access count. Materialize is idempotent;
// the first call wins.
func (in *Injector) Materialize(totalMolecules, linesPerMolecule int) error {
	if in == nil {
		return nil
	}
	if in.materialized {
		return nil
	}
	if totalMolecules <= 0 || linesPerMolecule <= 0 {
		return fmt.Errorf("faults: cannot materialize over %d molecules x %d lines",
			totalMolecules, linesPerMolecule)
	}
	c := in.campaign
	src := rng.New(c.Seed ^ 0xfa0175)

	for _, f := range c.MoleculeFailures {
		if f.Molecule >= totalMolecules {
			in.stats.SkippedOutOfRange++
			continue
		}
		in.failures = append(in.failures, f)
	}
	if s := c.RandomMoleculeFailures; s != nil && s.Count > 0 {
		// Distinct molecules, also distinct from the explicit schedule:
		// a molecule fails at most once.
		taken := make(map[int]bool, len(in.failures))
		for _, f := range in.failures {
			taken[f.Molecule] = true
		}
		picked := 0
		for _, id := range src.Perm(totalMolecules) {
			if picked == s.Count {
				break
			}
			if taken[id] {
				continue
			}
			picked++
			at := s.Start + src.Uint64()%(s.End-s.Start)
			in.failures = append(in.failures, MoleculeFailure{At: at, Molecule: id})
		}
	}

	for _, l := range c.LineCorruptions {
		if l.Molecule >= totalMolecules || l.Line >= linesPerMolecule {
			in.stats.SkippedOutOfRange++
			continue
		}
		in.corruptions = append(in.corruptions, l)
	}
	if s := c.RandomLineCorruptions; s != nil {
		for i := 0; i < s.Count; i++ {
			in.corruptions = append(in.corruptions, LineCorruption{
				At:       s.Start + src.Uint64()%(s.End-s.Start),
				Molecule: src.Intn(totalMolecules),
				Line:     src.Intn(linesPerMolecule),
			})
		}
	}

	in.delays = append(in.delays, c.NoCDelays...)

	sort.SliceStable(in.failures, func(i, j int) bool { return in.failures[i].At < in.failures[j].At })
	sort.SliceStable(in.corruptions, func(i, j int) bool { return in.corruptions[i].At < in.corruptions[j].At })
	sort.SliceStable(in.delays, func(i, j int) bool { return in.delays[i].At < in.delays[j].At })
	in.materialized = true
	return nil
}

// Materialized reports whether random specs have been expanded.
func (in *Injector) Materialized() bool { return in != nil && in.materialized }

// FailuresDue pops the hard failures scheduled at or before access
// count at. The same event is never delivered twice.
func (in *Injector) FailuresDue(at uint64) []MoleculeFailure {
	if in == nil || in.failCursor >= len(in.failures) || in.failures[in.failCursor].At > at {
		return nil
	}
	start := in.failCursor
	for in.failCursor < len(in.failures) && in.failures[in.failCursor].At <= at {
		in.failCursor++
	}
	due := in.failures[start:in.failCursor]
	in.stats.MoleculeFailures += uint64(len(due))
	return due
}

// CorruptionsDue pops the line corruptions scheduled at or before at.
func (in *Injector) CorruptionsDue(at uint64) []LineCorruption {
	if in == nil || in.corruptCursor >= len(in.corruptions) || in.corruptions[in.corruptCursor].At > at {
		return nil
	}
	start := in.corruptCursor
	for in.corruptCursor < len(in.corruptions) && in.corruptions[in.corruptCursor].At <= at {
		in.corruptCursor++
	}
	due := in.corruptions[start:in.corruptCursor]
	in.stats.LineCorruptions += uint64(len(due))
	return due
}

// NoCDelayAt returns the delay window covering access count at, or nil
// when the interconnect is healthy. Overlapping windows resolve to the
// earliest-starting one. Windows are not consumed — every remote lookup
// inside one is degraded.
func (in *Injector) NoCDelayAt(at uint64) *NoCDelay {
	if in == nil {
		return nil
	}
	for i := range in.delays {
		d := &in.delays[i]
		if d.At > at {
			break // sorted by At; nothing later can cover at
		}
		end := d.At + d.Duration
		if end == d.At {
			end = d.At + 1
		}
		if at < end {
			in.stats.NoCDelayedLookups++
			return d
		}
	}
	return nil
}

// PendingFailures returns the number of hard failures not yet delivered
// (the remaining schedule; a finished campaign reports 0).
func (in *Injector) PendingFailures() int {
	if in == nil {
		return 0
	}
	return len(in.failures) - in.failCursor
}

// ScheduledFailures returns the materialized hard-failure count.
func (in *Injector) ScheduledFailures() int {
	if in == nil {
		return 0
	}
	return len(in.failures)
}

// Stats returns delivery counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// Campaign returns the campaign the injector was built from. Checkpoints
// persist the campaign (the materialized schedules are a pure function
// of it plus the cache geometry) instead of the expanded event lists.
func (in *Injector) Campaign() Campaign {
	if in == nil {
		return Campaign{}
	}
	return in.campaign
}

// CursorState is the injector's mutable delivery position: how far the
// failure and corruption cursors have advanced, and the counters bumped
// along the way. Together with the Campaign and the cache geometry it
// fully determines the injector's future behaviour.
type CursorState struct {
	FailCursor    int
	CorruptCursor int
	Stats         Stats
}

// CursorState captures the delivery position for a checkpoint.
func (in *Injector) CursorState() CursorState {
	if in == nil {
		return CursorState{}
	}
	return CursorState{
		FailCursor:    in.failCursor,
		CorruptCursor: in.corruptCursor,
		Stats:         in.stats,
	}
}

// RestoreCursors rewinds (or advances) the injector to a previously
// captured delivery position. The injector must already be materialized
// so the cursor bounds can be checked against the expanded schedules.
func (in *Injector) RestoreCursors(cs CursorState) error {
	if in == nil {
		return fmt.Errorf("faults: cannot restore cursors on a nil injector")
	}
	if !in.materialized {
		return fmt.Errorf("faults: cannot restore cursors before Materialize")
	}
	if cs.FailCursor < 0 || cs.FailCursor > len(in.failures) {
		return fmt.Errorf("faults: failure cursor %d outside schedule of %d", cs.FailCursor, len(in.failures))
	}
	if cs.CorruptCursor < 0 || cs.CorruptCursor > len(in.corruptions) {
		return fmt.Errorf("faults: corruption cursor %d outside schedule of %d", cs.CorruptCursor, len(in.corruptions))
	}
	in.failCursor = cs.FailCursor
	in.corruptCursor = cs.CorruptCursor
	in.stats = cs.Stats
	return nil
}
