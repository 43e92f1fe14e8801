package difftest

import "testing"

// TestVMDifferential cross-checks the production interpreter against
// the reference interpreter on a seeded corpus of generated
// verifier-valid programs: final registers, stack, context, map state,
// and verdict must all agree.
func TestVMDifferential(t *testing.T) {
	trials := 500
	if testing.Short() {
		trials = 50
	}
	rep := runAxis(t, AxisVM, GridConfig{VMTrials: trials})
	t.Log(rep)
	if rep.Failed() {
		t.Fatalf("vm divergences:\n%s", rep)
	}
	if rep.Replays < trials*3/4 {
		t.Fatalf("only %d/%d generated programs executed — generator validity regressed", rep.Replays, trials)
	}
}
