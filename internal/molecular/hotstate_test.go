package molecular_test

import (
	"testing"

	"molcache/internal/addr"
	"molcache/internal/cmp"
	"molcache/internal/molecular"
	"molcache/internal/resize"
	"molcache/internal/workload"
)

// TestReplayHotStateBytes replays the seed-2006 Table 2 capture (the
// twelve mixed applications, 12M processor references over the 1 MB
// 4-way reference L2) into the Table 2 simulator — 6 MB in 3 clusters
// of 4 tiles, 8 KB molecules, Randy, each application homed on its own
// tile, Algorithm 1's AdaptiveGlobal controller at 25% goals — and pins
// the bytes of its hot state at the end: the twelve block indexes'
// slots and the line slab. The replay touches both on every access, so
// their size decides how many lookups miss the host's caches; a layout
// that re-inflates either fails here.
func TestReplayHotStateBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("captures 12M processor references")
	}
	refs, err := cmp.CaptureMix(workload.MixedNames, 12_000_000, 2006)
	if err != nil {
		t.Fatal(err)
	}
	c := molecular.MustNew(molecular.Config{
		TotalSize:       6 * addr.MB,
		MoleculeSize:    8 * addr.KB,
		LineSize:        64,
		TilesPerCluster: 4,
		Clusters:        3,
		Policy:          molecular.RandyReplacement,
		Seed:            2006,
	})
	goals := make(map[uint16]float64, len(workload.MixedNames))
	for i := range workload.MixedNames {
		asid := uint16(i + 1)
		goals[asid] = 0.25
		if _, err := c.CreateRegion(asid, molecular.RegionOptions{HomeCluster: i / 4, HomeTile: i % 4}); err != nil {
			t.Fatal(err)
		}
	}
	ctrl, err := resize.New(c, resize.Config{Trigger: resize.AdaptiveGlobal, Goals: goals})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		c.Access(r)
		ctrl.Tick()
	}
	index, lines := molecular.HotStateBytes(c)
	t.Logf("%d references: index %d B, lines %d B", len(refs), index, lines)
	// 159,744 four-byte index slots and 768 × 128 eight-byte lines.
	if want := 159_744 * 4; index != want {
		t.Errorf("block indexes take %d B, want %d", index, want)
	}
	if want := 768 * 128 * 8; lines != want {
		t.Errorf("line slab takes %d B, want %d", lines, want)
	}
}
