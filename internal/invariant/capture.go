package invariant

import "molcache/internal/molecular"

// CaptureCache snapshots a molecular cache's structural state: every
// molecule with its assignment bits and resident blocks, every region's
// replacement view and tile index. Read-only.
func CaptureCache(c *molecular.Cache) Snapshot {
	s := Snapshot{
		TotalMolecules:  c.TotalMolecules(),
		TilesPerCluster: c.Config().TilesPerCluster,
	}
	for _, cl := range c.Clusters() {
		for _, t := range cl.Tiles() {
			free := make(map[int]bool, t.FreeCount())
			for _, m := range t.FreeList() {
				free[m.ID()] = true
			}
			for _, m := range t.Molecules() {
				s.Molecules = append(s.Molecules, MoleculeState{
					ID:     m.ID(),
					Tile:   t.ID(),
					ASID:   m.ASID(),
					Owned:  m.Owned(),
					Shared: m.Shared(),
					Failed: m.Failed(),
					Free:   free[m.ID()],
					Row:    m.Row(),
					Blocks: m.ValidBlocks(),
				})
			}
		}
	}
	for _, r := range c.Regions() {
		s.Regions = append(s.Regions, RegionState{
			ASID:       r.ASID(),
			Count:      r.MoleculeCount(),
			HomeTile:   r.HomeTile().ID(),
			Rows:       r.RowMolecules(),
			TileCounts: r.TileCounts(),
			Index:      r.IndexSnapshot(),
		})
	}
	return s
}

// CacheSource adapts a molecular cache into a Checker Source.
func CacheSource(c *molecular.Cache) Source {
	return func() Snapshot { return CaptureCache(c) }
}
