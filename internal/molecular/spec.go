package molecular

import (
	"fmt"
	"strconv"
	"strings"

	"molcache/internal/addr"
)

// ParseSpec parses the commands' molecular cache spec,
// molecular:SIZE:CxT:POLICY (for example molecular:2MB:1x4:Randy), into
// a Config of C clusters of T tiles seeded with seed. The leading word,
// the x and the policy name take any case; SIZE is an addr.ParseBytes
// count. Geometry is checked by New, not here.
func ParseSpec(spec string, seed uint64) (Config, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 4 || !strings.EqualFold(parts[0], "molecular") {
		return Config{}, fmt.Errorf("molecular spec needs molecular:SIZE:CxT:POLICY, got %q", spec)
	}
	size, err := addr.ParseBytes(parts[1])
	if err != nil {
		return Config{}, err
	}
	ct := strings.SplitN(strings.ToLower(parts[2]), "x", 2)
	if len(ct) != 2 {
		return Config{}, fmt.Errorf("bad clusters-x-tiles %q", parts[2])
	}
	clusters, err := strconv.Atoi(ct[0])
	if err != nil {
		return Config{}, fmt.Errorf("bad cluster count %q", ct[0])
	}
	tiles, err := strconv.Atoi(ct[1])
	if err != nil {
		return Config{}, fmt.Errorf("bad tile count %q", ct[1])
	}
	policy, err := ParsePolicy(parts[3])
	if err != nil {
		return Config{}, err
	}
	return Config{
		TotalSize:       size,
		Clusters:        clusters,
		TilesPerCluster: tiles,
		Policy:          policy,
		Seed:            seed,
	}, nil
}

// ParsePolicy parses a replacement-policy name: random, randy or
// lru-direct (also lrudirect), in any case.
func ParsePolicy(name string) (ReplacementKind, error) {
	switch strings.ToLower(name) {
	case "random":
		return RandomReplacement, nil
	case "randy":
		return RandyReplacement, nil
	case "lru-direct", "lrudirect":
		return LRUDirect, nil
	}
	return "", fmt.Errorf("unknown policy %q", name)
}
