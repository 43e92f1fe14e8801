package faultinject

import (
	"slices"
	"testing"
)

func firePattern(seed uint64, sched Schedule, n int) []bool {
	p := New(seed)
	s := p.Arm("t", sched)
	out := make([]bool, n)
	for i := range out {
		out[i] = s.Fire()
	}
	return out
}

func TestNilAndDisarmedSitesNeverFire(t *testing.T) {
	var nilSite *Site
	if nilSite.Fire() {
		t.Fatal("nil site fired")
	}
	p := New(1)
	s := p.Site("quiet")
	for i := 0; i < 100; i++ {
		if s.Fire() {
			t.Fatal("disarmed site fired")
		}
	}
	if s.Evaluated() != 0 {
		t.Fatalf("disarmed site counted evaluations: %d", s.Evaluated())
	}
	// Arming with an inactive schedule stays quiet too.
	s = p.Arm("quiet", Schedule{})
	if s.Fire() {
		t.Fatal("zero-schedule site fired")
	}
}

func TestEveryNth(t *testing.T) {
	pat := firePattern(7, Schedule{EveryNth: 3}, 9)
	want := []bool{false, false, true, false, false, true, false, false, true}
	for i := range want {
		if pat[i] != want[i] {
			t.Fatalf("call %d: got %v, want %v", i+1, pat[i], want[i])
		}
	}
}

func TestAfterN(t *testing.T) {
	pat := firePattern(7, Schedule{AfterN: 4}, 8)
	for i, fired := range pat {
		want := i >= 4
		if fired != want {
			t.Fatalf("call %d: got %v, want %v", i+1, fired, want)
		}
	}
}

func TestProbDeterministicAndRoughlyCalibrated(t *testing.T) {
	const n = 20000
	a := firePattern(42, Schedule{Prob: 0.1}, n)
	b := firePattern(42, Schedule{Prob: 0.1}, n)
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i+1)
		}
		if a[i] {
			hits++
		}
	}
	if hits < n/20 || hits > n/5 {
		t.Fatalf("p=0.1 fired %d/%d times", hits, n)
	}
	c := firePattern(43, Schedule{Prob: 0.1}, n)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestCountersAndPublish: per-site counters, and the sorted per-site
// snapshot (Counts) the chaos report publishes, including a site that
// was created but never consulted.
func TestCountersAndPublish(t *testing.T) {
	p := New(9)
	s := p.Arm(SiteMapUpdate, Schedule{EveryNth: 2})
	for i := 0; i < 10; i++ {
		s.Fire()
	}
	if got := s.Evaluated(); got != 10 {
		t.Fatalf("evaluated = %d, want 10", got)
	}
	if got := s.Injected(); got != 5 {
		t.Fatalf("injected = %d, want 5", got)
	}
	p.Site(SiteMapLookup) // created, never consulted
	want := []SiteCount{{Site: SiteMapLookup}, {Site: SiteMapUpdate, Evaluated: 10, Injected: 5}}
	if got := p.Counts(); !slices.Equal(got, want) {
		t.Fatalf("Counts() = %+v, want %+v", got, want)
	}
}

func TestRearmResetsStream(t *testing.T) {
	p := New(5)
	s := p.Arm("x", Schedule{EveryNth: 2})
	first := []bool{s.Fire(), s.Fire(), s.Fire()}
	s = p.Arm("x", Schedule{EveryNth: 2})
	second := []bool{s.Fire(), s.Fire(), s.Fire()}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("re-armed stream diverged at %d", i)
		}
	}
}

// BenchmarkFireDisarmed pins the cost of a disarmed site on a hot
// path: one atomic load. BenchmarkFireNil pins the nil-site fast path
// surfaces use before a chaos run ever arms them.
func BenchmarkFireDisarmed(b *testing.B) {
	s := New(1).Site(SiteMapLookup)
	for i := 0; i < b.N; i++ {
		if s.Fire() {
			b.Fatal("disarmed site fired")
		}
	}
}

func BenchmarkFireNil(b *testing.B) {
	var s *Site
	for i := 0; i < b.N; i++ {
		if s.Fire() {
			b.Fatal("nil site fired")
		}
	}
}

// TestFireEmitsFaultEvents: every injected fault is reported, at the
// call index it fired on, in the plane's per-site Counts, and a site
// armed later on the same plane reports its own.
func TestFireEmitsFaultEvents(t *testing.T) {
	p := New(7)
	s := p.Arm("boom", Schedule{EveryNth: 3})
	var fired []int
	for i := 1; i <= 9; i++ {
		if s.Fire() {
			fired = append(fired, i)
		}
	}
	if want := []int{3, 6, 9}; !slices.Equal(fired, want) {
		t.Fatalf("fired at calls %v, want %v", fired, want)
	}
	s2 := p.Arm("boom2", Schedule{EveryNth: 1})
	if !s2.Fire() {
		t.Fatal("new site did not fire")
	}
	want := []SiteCount{{Site: "boom", Evaluated: 9, Injected: 3}, {Site: "boom2", Evaluated: 1, Injected: 1}}
	if got := p.Counts(); !slices.Equal(got, want) {
		t.Fatalf("Counts() = %+v, want %+v", got, want)
	}
}
