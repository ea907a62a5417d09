package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound; the final
	// bucket's is +Inf (serialized as the string "+Inf" in JSON).
	UpperBound float64 `json:"le"`
	// Count is the cumulative observation count at this bound.
	Count uint64 `json:"count"`
}

// MarshalJSON renders +Inf as the Prometheus-conventional "+Inf".
func (b Bucket) MarshalJSON() ([]byte, error) {
	le := strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
	if math.IsInf(b.UpperBound, +1) {
		le = "+Inf"
	}
	return []byte(fmt.Sprintf(`{"le":%q,"count":%d}`, le, b.Count)), nil
}

// UnmarshalJSON parses the representation MarshalJSON produces.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    string `json:"le"`
		Count uint64 `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	if raw.LE == "+Inf" {
		b.UpperBound = math.Inf(+1)
		return nil
	}
	v, err := strconv.ParseFloat(raw.LE, 64)
	if err != nil {
		return fmt.Errorf("telemetry: bad bucket bound %q: %w", raw.LE, err)
	}
	b.UpperBound = v
	return nil
}

// HistogramSnapshot is one histogram's frozen state.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot is a frozen view of a registry, the unit both exporters
// serialize. Funcs are evaluated at snapshot time and appear as plain
// gauges, counters and histograms.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry's current state: AtomicSnapshot plus
// the value of every func. A nil registry yields an empty (but usable)
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := r.AtomicSnapshot()
	if r == nil {
		return s
	}
	r.mu.RLock()
	gaugeFns := maps.Clone(r.gaugeFns)
	counterFns := maps.Clone(r.counterFns)
	histFns := maps.Clone(r.histFns)
	r.mu.RUnlock()
	// Funcs run outside the registry lock: they commonly read
	// simulation state that may itself call back into the registry.
	for name, fn := range gaugeFns {
		s.Gauges[name] = fn()
	}
	for name, fn := range counterFns {
		s.Counters[name] = fn()
	}
	for name, fn := range histFns {
		s.Histograms[name] = fn()
	}
	return s
}

// snapshot freezes one histogram's cumulative buckets.
func (h *Histogram) snapshot() HistogramSnapshot {
	hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		ub := math.Inf(+1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		hs.Buckets = append(hs.Buckets, Bucket{UpperBound: ub, Count: cum})
	}
	return hs
}

// AtomicSnapshot freezes only the registry's lock-free instruments —
// counters, set gauges and histograms — and skips funcs, whose closures
// typically read live simulation state and are therefore only safe to
// run on the goroutine that owns the simulation. This is the
// snapshot concurrent readers (the introspection HTTP server) may take
// at any time.
func (r *Registry) AtomicSnapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// formatFloat renders a float the way Prometheus text format expects,
// round-trippable through strconv.ParseFloat.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// mergeLabels splices extra label pairs (e.g. `le="8"`) into a metric
// name that may already carry a label block.
func mergeLabels(name, extra string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + "{" + name[i+1:len(name)-1] + "," + extra + "}"
	}
	return name + "{" + extra + "}"
}

// suffixName appends a series suffix to the base name, keeping any
// label block at the end ("x{a=\"1\"}" + "_sum" -> "x_sum{a=\"1\"}").
func suffixName(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// trimBaseSuffix inverts suffixName.
func trimBaseSuffix(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return strings.TrimSuffix(name[:i], suffix) + name[i:]
	}
	return strings.TrimSuffix(name, suffix)
}

// Prometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4): HELP-less, one TYPE comment per metric family,
// families and samples in sorted order.
func (s Snapshot) Prometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)

	typed := map[string]string{} // base name -> type, to emit TYPE once
	emitType := func(name, kind string) {
		base := BaseName(name)
		if typed[base] == "" {
			typed[base] = kind
			fmt.Fprintf(bw, "# TYPE %s %s\n", base, kind)
		}
	}

	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		emitType(n, "counter")
		fmt.Fprintf(bw, "%s %d\n", n, s.Counters[n])
	}

	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		emitType(n, "gauge")
		fmt.Fprintf(bw, "%s %s\n", n, formatFloat(s.Gauges[n]))
	}

	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		emitType(n, "histogram")
		for _, b := range h.Buckets {
			fmt.Fprintf(bw, "%s %d\n",
				mergeLabels(suffixName(n, "_bucket"), `le=`+strconv.Quote(formatFloat(b.UpperBound))), b.Count)
		}
		fmt.Fprintf(bw, "%s %s\n", suffixName(n, "_sum"), formatFloat(h.Sum))
		fmt.Fprintf(bw, "%s %d\n", suffixName(n, "_count"), h.Count)
	}
	return bw.Flush()
}

// PrometheusString is Prometheus into a string (test and log helper).
func (s Snapshot) PrometheusString() string {
	var b strings.Builder
	s.Prometheus(&b)
	return b.String()
}

// ParsePrometheus inverts Snapshot.Prometheus: it reassembles counters,
// gauges and histograms (from their _bucket/_sum/_count samples) into a
// Snapshot. It accepts only the subset of the exposition format that
// Prometheus emits — which is exactly what round-trip tests need.
func ParsePrometheus(r io.Reader) (Snapshot, error) {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	types := map[string]string{}
	type histAccum struct {
		buckets []Bucket
		sum     float64
		count   uint64
	}
	hists := map[string]*histAccum{}

	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) == 4 && fields[1] == "TYPE" {
				types[fields[2]] = fields[3]
			}
			continue
		}
		// A sample: NAME[{labels}] VALUE — the name may contain spaces
		// only inside the label block, which our exporter never emits.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return s, fmt.Errorf("telemetry: malformed sample line %q", line)
		}
		name, valStr := line[:sp], line[sp+1:]
		base := BaseName(name)

		// Histogram series: FAMILY_bucket / FAMILY_sum / FAMILY_count
		// with the family itself typed "histogram" (the standard
		// exposition-format convention).
		switch {
		case strings.HasSuffix(base, "_bucket") && types[strings.TrimSuffix(base, "_bucket")] == "histogram":
			le, rest, err := extractLabel(name, "le")
			if err != nil {
				return s, err
			}
			fam := trimBaseSuffix(rest, "_bucket")
			ub := math.Inf(+1)
			if le != "+Inf" {
				ub, err = strconv.ParseFloat(le, 64)
				if err != nil {
					return s, fmt.Errorf("telemetry: bad le %q: %w", le, err)
				}
			}
			n, err := strconv.ParseUint(valStr, 10, 64)
			if err != nil {
				return s, fmt.Errorf("telemetry: bad bucket count %q: %w", valStr, err)
			}
			h := hists[fam]
			if h == nil {
				h = &histAccum{}
				hists[fam] = h
			}
			h.buckets = append(h.buckets, Bucket{UpperBound: ub, Count: n})
			continue
		case strings.HasSuffix(base, "_sum") && types[strings.TrimSuffix(base, "_sum")] == "histogram":
			fam := trimBaseSuffix(name, "_sum")
			v, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				return s, fmt.Errorf("telemetry: bad sum %q: %w", valStr, err)
			}
			h := hists[fam]
			if h == nil {
				h = &histAccum{}
				hists[fam] = h
			}
			h.sum = v
			continue
		case strings.HasSuffix(base, "_count") && types[strings.TrimSuffix(base, "_count")] == "histogram":
			fam := trimBaseSuffix(name, "_count")
			n, err := strconv.ParseUint(valStr, 10, 64)
			if err != nil {
				return s, fmt.Errorf("telemetry: bad count %q: %w", valStr, err)
			}
			h := hists[fam]
			if h == nil {
				h = &histAccum{}
				hists[fam] = h
			}
			h.count = n
			continue
		}

		switch types[base] {
		case "counter":
			n, err := strconv.ParseUint(valStr, 10, 64)
			if err != nil {
				return s, fmt.Errorf("telemetry: bad counter value %q: %w", valStr, err)
			}
			s.Counters[name] = n
		case "gauge":
			v, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				return s, fmt.Errorf("telemetry: bad gauge value %q: %w", valStr, err)
			}
			s.Gauges[name] = v
		default:
			return s, fmt.Errorf("telemetry: sample %q has no TYPE line", name)
		}
	}
	if err := sc.Err(); err != nil {
		return s, err
	}
	for fam, h := range hists {
		sort.Slice(h.buckets, func(i, j int) bool {
			return h.buckets[i].UpperBound < h.buckets[j].UpperBound
		})
		s.Histograms[fam] = HistogramSnapshot{Count: h.count, Sum: h.sum, Buckets: h.buckets}
	}
	return s, nil
}

// extractLabel pulls one label's value out of a name's label block and
// returns the name with that label removed.
func extractLabel(name, label string) (value, rest string, err error) {
	i := strings.IndexByte(name, '{')
	if i < 0 || name[len(name)-1] != '}' {
		return "", "", fmt.Errorf("telemetry: sample %q lacks a label block", name)
	}
	body := name[i+1 : len(name)-1]
	var kept []string
	found := false
	for _, pair := range splitLabels(body) {
		eq := strings.IndexByte(pair, '=')
		if eq < 0 {
			return "", "", fmt.Errorf("telemetry: malformed label %q in %q", pair, name)
		}
		k := pair[:eq]
		v, uerr := strconv.Unquote(pair[eq+1:])
		if uerr != nil {
			return "", "", fmt.Errorf("telemetry: malformed label value in %q: %w", pair, uerr)
		}
		if k == label {
			value, found = v, true
			continue
		}
		kept = append(kept, pair)
	}
	if !found {
		return "", "", fmt.Errorf("telemetry: sample %q lacks label %q", name, label)
	}
	rest = name[:i]
	if len(kept) > 0 {
		rest += "{" + strings.Join(kept, ",") + "}"
	}
	return value, rest, nil
}

// splitLabels splits a label-block body on commas outside quotes. The
// scanner consumes backslash escapes inside quoted values byte-by-byte,
// so a value ending in a literal backslash (`a\"` after quoting: the
// closing quote is preceded by `\\`) still terminates the quote — a
// look-behind for '\\' would misread it as escaped.
func splitLabels(body string) []string {
	var out []string
	inQuote := false
	start := 0
	for i := 0; i < len(body); i++ {
		switch c := body[i]; {
		case inQuote:
			if c == '\\' {
				i++ // skip the escaped byte
			} else if c == '"' {
				inQuote = false
			}
		case c == '"':
			inQuote = true
		case c == ',':
			out = append(out, body[start:i])
			start = i + 1
		}
	}
	if start < len(body) {
		out = append(out, body[start:])
	}
	return out
}
