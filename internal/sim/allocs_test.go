//go:build !race

// The race detector changes allocation counts, so this guard runs only
// in non-race builds.

package sim

import "testing"

// TestHoldsMemoHitAllocs pins that a memoized similarity verdict is
// answered without allocating.
func TestHoldsMemoHitAllocs(t *testing.T) {
	p := Threshold("jw90", JaroWinkler, 0.9)
	p.Holds("jonathan", "jonathon")
	if got := testing.AllocsPerRun(100, func() { p.Holds("jonathon", "jonathan") }); got != 0 {
		t.Errorf("memo-hit Holds allocates %.1f objects, want 0", got)
	}
}

// TestLevenshteinAllocs pins that the edit-distance kernel scores an
// ASCII pair without allocating.
func TestLevenshteinAllocs(t *testing.T) {
	a, b := "qhxvmzta pkbnwrle duoscfgi", "qhxvmzta pkbwrle duoscfgi"
	if got := testing.AllocsPerRun(100, func() { NormalizedLevenshtein(a, b) }); got != 0 {
		t.Errorf("ASCII NormalizedLevenshtein allocates %.1f objects, want 0", got)
	}
}
