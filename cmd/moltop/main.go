// Command moltop is a polling terminal dashboard over a molcache
// introspection server (a simulation started with -serve): per-ASID
// region occupancy, miss rate against goal, the last resize action and
// headline cache metrics, refreshed in place like top(1). If the server
// goes away (restart, network blip) the last good frame stays on screen
// under a STALE banner while reconnects back off exponentially.
//
// Usage:
//
//	molsim -cache molecular:6MB:3x4:Randy -mix crafty,CRC,DRR -serve :9464 &
//	moltop -addr localhost:9464
//	moltop -addr localhost:9464 -once          # one snapshot, no screen control
//	moltop -addr localhost:9464 -interval 2s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"molcache/internal/obs"
	"molcache/internal/tabletext"
	"molcache/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("moltop: ")
	addr := flag.String("addr", "localhost:9464", "introspection server address (host:port or URL)")
	interval := flag.Duration("interval", time.Second, "refresh interval")
	once := flag.Bool("once", false, "print one snapshot and exit (no screen clearing)")
	flag.Parse()

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")

	client := &http.Client{Timeout: 5 * time.Second}
	// The dashboard must survive introspection-server restarts: on any
	// fetch failure the last good frame stays on screen under a visible
	// STALE banner while reconnect attempts back off exponentially
	// (capped), snapping back to the normal cadence on the first success.
	const maxBackoff = 30 * time.Second
	var (
		lastFrame string    // last successfully rendered frame
		lastGood  time.Time // when it was rendered
		backoff   = *interval
	)
	for {
		frame, err := render(client, base)
		if *once {
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(frame)
			return
		}
		if err == nil {
			lastFrame, lastGood = frame, time.Now()
			backoff = *interval
			// Clear and re-home like top(1); one Write per frame avoids tearing.
			os.Stdout.WriteString("\x1b[H\x1b[2J" + frame)
			time.Sleep(*interval)
			continue
		}
		banner := fmt.Sprintf("\x1b[7m STALE \x1b[0m %v — reconnecting in %s",
			err, backoff.Round(time.Millisecond))
		if lastFrame != "" {
			banner += fmt.Sprintf("\nshowing last snapshot from %s ago",
				time.Since(lastGood).Round(time.Second))
		}
		os.Stdout.WriteString("\x1b[H\x1b[2J" + banner + "\n\n" + lastFrame)
		time.Sleep(backoff)
		backoff *= 2
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// fetch GETs path and returns the body.
func fetch(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// render fetches /regions and /metrics and formats one dashboard frame.
func render(client *http.Client, base string) (string, error) {
	regionsBody, err := fetch(client, base+"/regions")
	if err != nil {
		return "", err
	}
	var st obs.State
	if err := json.Unmarshal(regionsBody, &st); err != nil {
		return "", fmt.Errorf("bad /regions payload: %w", err)
	}
	metricsBody, err := fetch(client, base+"/metrics")
	if err != nil {
		return "", err
	}
	snap, err := telemetry.ParsePrometheus(strings.NewReader(string(metricsBody)))
	if err != nil {
		return "", fmt.Errorf("bad /metrics payload: %w", err)
	}

	var b strings.Builder
	name := st.Cache
	if name == "" {
		name = "(no state published yet)"
	}
	fmt.Fprintf(&b, "moltop — %s @ %s\n", name, base)
	fmt.Fprintf(&b, "accesses %d   miss rate %.4f   free molecules %d   remote cycles %d\n\n",
		st.Accesses, st.MissRate, st.FreeMolecules, st.RemoteCycles)

	t := tabletext.New("regions",
		"asid", "molecules", "tiles", "accesses", "miss rate", "goal", "excess", "last resize")
	for _, r := range st.Regions {
		asid := fmt.Sprintf("%d", r.ASID)
		goal, excess := "-", "-"
		if r.Goal > 0 {
			goal = fmt.Sprintf("%.3f", r.Goal)
			excess = fmt.Sprintf("%+.3f", r.Deviation)
		}
		last := "-"
		if d := r.LastResize; d != nil {
			last = fmt.Sprintf("%s %+d @%d", d.Action, d.Delta, d.At)
		}
		t.AddRow(asid,
			fmt.Sprintf("%d", r.Molecules),
			tileSummary(r.Tiles),
			fmt.Sprintf("%d", r.Accesses),
			fmt.Sprintf("%.4f", r.MissRate),
			goal, excess, last)
	}
	b.WriteString(t.String())
	b.WriteString("\n")

	m := tabletext.New("cache metrics", "metric", "value")
	for _, k := range []string{
		"molcache_molecular_hits_total",
		"molcache_molecular_misses_total",
		"molcache_molecular_remote_tile_hits_total",
		"molcache_molecular_tag_probes_total",
	} {
		if v, ok := snap.Counters[k]; ok {
			m.AddRow(k, fmt.Sprintf("%d", v))
		}
	}
	// Resize actions are labeled per action; fold them into one line.
	if total, detail := sumLabeled(snap.Counters, "molcache_resize_actions_total"); total > 0 {
		m.AddRow("molcache_resize_actions_total", fmt.Sprintf("%d (%s)", total, detail))
	}
	if v, ok := snap.Gauges["molcache_molecular_avg_probes_per_access"]; ok {
		m.AddRow("molcache_molecular_avg_probes_per_access", fmt.Sprintf("%.3f", v))
	}
	if h, ok := snap.Histograms["molcache_molecular_probe_count"]; ok && h.Count > 0 {
		m.AddRow("molcache_molecular_probe_count (mean)", fmt.Sprintf("%.2f over %d", h.Sum/float64(h.Count), h.Count))
	}
	// Service time is kept per region; the cache-wide mean sums them.
	var svcSum float64
	var svcCount uint64
	for k, h := range snap.Histograms {
		if strings.HasPrefix(k, "molcache_access_service_cycles{") {
			svcSum += h.Sum
			svcCount += h.Count
		}
	}
	if svcCount > 0 {
		m.AddRow("molcache_access_service_cycles (mean)", fmt.Sprintf("%.2f over %d", svcSum/float64(svcCount), svcCount))
	}
	b.WriteString(m.String())
	return b.String(), nil
}

// sumLabeled folds a labeled counter family (`name{label="v"}`) into a
// total plus a sorted "v:n v:n" breakdown.
func sumLabeled(counters map[string]uint64, name string) (uint64, string) {
	var total uint64
	var keys []string
	for k := range counters {
		if strings.HasPrefix(k, name+"{") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		total += counters[k]
		label := strings.TrimSuffix(strings.TrimPrefix(k, name+"{"), "}")
		if i := strings.IndexByte(label, '='); i >= 0 {
			label = strings.Trim(label[i+1:], `"`)
		}
		parts = append(parts, fmt.Sprintf("%s:%d", label, counters[k]))
	}
	return total, strings.Join(parts, " ")
}

// tileSummary renders a compact tile:count list, e.g. "0:12 1:4".
func tileSummary(tiles []obs.TileCount) string {
	if len(tiles) == 0 {
		return "-"
	}
	parts := make([]string, len(tiles))
	for i, tc := range tiles {
		parts[i] = fmt.Sprintf("%d:%d", tc.Tile, tc.Molecules)
	}
	return strings.Join(parts, " ")
}
