package molecular

import "unsafe"

// HotStateBytes returns what a replay's hot state takes: the bytes of
// every region's block-index slots, and of the line slab with the
// LRU-Direct touch array.
func HotStateBytes(c *Cache) (index, lines int) {
	for _, r := range c.regionList {
		index += len(r.index.slots) * int(unsafe.Sizeof(r.index.slots[0]))
	}
	lines = len(c.lines)*int(unsafe.Sizeof(c.lines[0])) + len(c.touch)*int(unsafe.Sizeof(c.touch[0]))
	return index, lines
}
