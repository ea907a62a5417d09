package molecular

import (
	"strings"
	"testing"

	"molcache/internal/addr"
)

func TestParseSpec(t *testing.T) {
	accepted := []struct {
		spec            string
		size            uint64
		clusters, tiles int
		policy          ReplacementKind
	}{
		{"molecular:2MB:1x4:Randy", 2 * addr.MB, 1, 4, RandyReplacement},
		{"MOLECULAR:512kb:2X8:RANDY", 512 * addr.KB, 2, 8, RandyReplacement},
		{"Molecular:65536:4x4:randy", 64 * addr.KB, 4, 4, RandyReplacement},
		{"molecular: 1MB :1x4:random", addr.MB, 1, 4, RandomReplacement},
		{"molecular:1MB:1x4:Random", addr.MB, 1, 4, RandomReplacement},
		{"molecular:6MB:3x4:LRU-Direct", 6 * addr.MB, 3, 4, LRUDirect},
		{"molecular:6MB:3x4:lru-direct", 6 * addr.MB, 3, 4, LRUDirect},
		{"molecular:6MB:3x4:LRUDirect", 6 * addr.MB, 3, 4, LRUDirect},
		// Geometry is New's to judge: the parser passes counts through.
		{"molecular:1MB:0x4:randy", addr.MB, 0, 4, RandyReplacement},
		{"molecular:1MB:+2x-1:randy", addr.MB, 2, -1, RandyReplacement},
	}
	for _, tc := range accepted {
		cfg, err := ParseSpec(tc.spec, 7)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		want := Config{TotalSize: tc.size, Clusters: tc.clusters, TilesPerCluster: tc.tiles,
			Policy: tc.policy, Seed: 7}
		if cfg.TotalSize != want.TotalSize || cfg.Clusters != want.Clusters ||
			cfg.TilesPerCluster != want.TilesPerCluster || cfg.Policy != want.Policy || cfg.Seed != 7 {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.spec, cfg, want)
		}
	}

	rejected := []struct{ spec, msg string }{
		{"", "needs molecular:SIZE:CxT:POLICY"},
		{"1MB:4", "needs molecular:SIZE:CxT:POLICY"},
		{"molecular:2MB:1x4", "needs molecular:SIZE:CxT:POLICY"},
		{"molecular:2MB:1x4:randy:extra", "needs molecular:SIZE:CxT:POLICY"},
		{"traditional:2MB:1x4:randy", "needs molecular:SIZE:CxT:POLICY"},
		{"molecular:2GB:1x4:randy", "bad size"},
		{"molecular::1x4:randy", "bad size"},
		{"molecular:-1MB:1x4:randy", "bad size"},
		{"molecular:18014398509481985KB:1x4:randy", "more than 2^64-1 bytes"},
		{"molecular:2MB:4:randy", "bad clusters-x-tiles"},
		{"molecular:2MB::randy", "bad clusters-x-tiles"},
		{"molecular:2MB:ax4:randy", "bad cluster count"},
		{"molecular:2MB:x4:randy", "bad cluster count"},
		{"molecular:2MB:1x:randy", "bad tile count"},
		{"molecular:2MB:1x4x2:randy", "bad tile count"},
		{"molecular:2MB:1x4:lru", "unknown policy"},
		{"molecular:2MB:1x4: randy", "unknown policy"},
		{"molecular:2MB:1x4:", "unknown policy"},
	}
	for _, tc := range rejected {
		cfg, err := ParseSpec(tc.spec, 7)
		if err == nil {
			t.Errorf("ParseSpec(%q) = %+v, want an error", tc.spec, cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("ParseSpec(%q) error %q, want it to mention %q", tc.spec, err, tc.msg)
		}
	}
}
