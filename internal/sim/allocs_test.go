//go:build !race

// The race detector changes allocation counts, so this guard runs only
// in non-race builds.

package sim

import "testing"

// TestHoldsMemoHitAllocs pins that a memoized similarity verdict is
// answered without allocating, on the instance that computed it and on
// a fork once the fork has seen the pair.
func TestHoldsMemoHitAllocs(t *testing.T) {
	p := Threshold("jw90", JaroWinkler, 0.9)
	f := p.(*thresholdPred).fork()
	for name, q := range map[string]Predicate{"instance": p, "fork": f} {
		q.Holds("jonathan", "jonathon")
		if got := testing.AllocsPerRun(100, func() { q.Holds("jonathon", "jonathan") }); got != 0 {
			t.Errorf("%s: memo-hit Holds allocates %.1f objects, want 0", name, got)
		}
	}
}
