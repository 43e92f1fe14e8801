package maps

// Footprint returns the map's backing-store size in bytes — every
// slice the map holds, so the live heap of a map is its footprint
// (TestLRUFootprintCoversHeap). It is the quantity the map-memory quota
// meters.
func (a *Array) Footprint() int { return len(a.data) }

// Footprint covers tags, keys, values, and the spill markers.
func (b *BucketHash) Footprint() int {
	return len(b.tags)*8 + len(b.keys) + len(b.vals) + len(b.ovf1) + len(b.ovf2)
}

// Footprint adds the recency links, the only state an LRU map keeps
// beside its core.
func (l *LRUHash) Footprint() int {
	return 4*(len(l.prev)+len(l.next)) + l.core.Footprint()
}

// FootprintOf reports a map's backing-store bytes, 0 for maps that
// don't implement the meter.
func FootprintOf(m Map) int {
	if f, ok := m.(interface{ Footprint() int }); ok {
		return f.Footprint()
	}
	return 0
}
