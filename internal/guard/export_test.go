package guard

// Shedding reports whether the shedder is currently rejecting packets.
func (g *Guard) Shedding() bool { return g.shedding }
