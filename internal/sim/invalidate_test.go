package sim

import "testing"

func TestInvalidateDropsSharedEntries(t *testing.T) {
	r := Default()
	p, _ := r.Lookup("jw90")
	// Memoize a few pairs through the predicate and its alias.
	p.Holds("jonathan", "jonathon")
	p.Holds("jonathan", "maria")
	f, _ := r.Lookup("~") // the alias resolves to the same memo
	f.Holds("maria", "marla")

	dropped := r.Invalidate("jonathan")
	if dropped != 2 {
		t.Fatalf("Invalidate dropped %d entries, want 2", dropped)
	}
	// Verdicts recompute identically after invalidation.
	if !p.Holds("jonathan", "jonathon") {
		t.Error("jw90(jonathan, jonathon) flipped after invalidation")
	}
	if !f.Holds("maria", "marla") {
		t.Error("untouched entry lost")
	}
	if got := r.Invalidate("no-such-name"); got != 0 {
		t.Errorf("Invalidate of unknown name dropped %d", got)
	}
	var nilReg *Registry
	if got := nilReg.Invalidate("x"); got != 0 {
		t.Errorf("nil registry dropped %d", got)
	}

	// A name containing NUL is one name: invalidating its prefix must
	// leave its pairs alone, and invalidating it drops exactly its own.
	p.Holds("x\x00y", "z")
	p.Holds("x", "w")
	p.Holds("q", "r")
	if got := r.Invalidate("x"); got != 1 {
		t.Errorf("Invalidate(x) dropped %d entries, want 1", got)
	}
	if got := r.Invalidate("x\x00y"); got != 1 {
		t.Errorf("Invalidate(x\\x00y) dropped %d entries, want 1", got)
	}
	if got := r.Invalidate("q"); got != 1 {
		t.Errorf("Invalidate(q) dropped %d entries, want 1", got)
	}
}
