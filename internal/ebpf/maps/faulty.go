package maps

// Faulty decorates an ArenaMap with injectable failures, modeling the
// error-injection points of the kernel map ops (bpf_map_update_elem
// returning -E2BIG/-ENOMEM under memory pressure, lookups missing when
// an entry was reclaimed). The hooks are plain closures so this package
// needs no dependency on the fault plane; the chaos harness wires them
// to faultinject.Site.Fire.
//
// A Faulty with nil hooks is a transparent pass-through, so it can stay
// installed permanently and be armed/disarmed from outside.
type Faulty struct {
	M ArenaMap
	// FailUpdate, when it returns true, makes Update fail with
	// ErrNoSpace without touching the underlying map.
	FailUpdate func() bool
	// MissLookup, when it returns true, makes Lookup/LookupArena report
	// a miss (programs see NULL) without consulting the underlying map.
	MissLookup func() bool
}

// Unwrap returns the decorated map, letting callers reach the concrete
// type through the decorator.
func (f *Faulty) Unwrap() ArenaMap { return f.M }

func (f *Faulty) Type() Type     { return f.M.Type() }
func (f *Faulty) KeySize() int   { return f.M.KeySize() }
func (f *Faulty) ValueSize() int { return f.M.ValueSize() }

// Lookup returns the stored value, or nil when the key is absent or an
// injected miss fires.
func (f *Faulty) Lookup(key []byte) []byte {
	if f.MissLookup != nil && f.MissLookup() {
		return nil
	}
	return f.M.Lookup(key)
}

// Update stores the value, or returns ErrNoSpace when an injected
// update failure fires.
func (f *Faulty) Update(key, value []byte) error {
	if f.FailUpdate != nil && f.FailUpdate() {
		return ErrNoSpace
	}
	return f.M.Update(key, value)
}

// Delete removes the key; deletes are not a fault surface (the kernel's
// htab_map_delete_elem cannot fail with -ENOMEM).
func (f *Faulty) Delete(key []byte) error { return f.M.Delete(key) }

// ArenaCount forwards to the decorated map.
func (f *Faulty) ArenaCount() int { return f.M.ArenaCount() }

// Arena forwards to the decorated map.
func (f *Faulty) Arena(i int) []byte { return f.M.Arena(i) }

// LookupArena resolves the key, or reports a miss when injected.
func (f *Faulty) LookupArena(key []byte) (int, int, bool) {
	if f.MissLookup != nil && f.MissLookup() {
		return 0, 0, false
	}
	return f.M.LookupArena(key)
}
