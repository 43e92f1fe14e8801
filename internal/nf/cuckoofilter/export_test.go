package cuckoofilter

// Kicks reports the displacements f has performed over its life.
func (f *Filter) Kicks() int { return f.kicks }
