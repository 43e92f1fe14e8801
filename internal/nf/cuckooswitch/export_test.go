package cuckooswitch

// Kicks reports the displacements s has performed over its life.
func (s *Switch) Kicks() int { return s.kicks }
