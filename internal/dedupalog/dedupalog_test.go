package dedupalog

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/fixtures"
)

// TestStaticSemanticsOnFigure1 contrasts the baseline with LACE on the
// running example (the Section 6.2 discussion): the static evaluation
// (i) merges the conference pair η = (c3, c4) that LACE's denial
// constraint δ3 blocks, and (ii) misses the recursive merges θ and κ
// that only become derivable after earlier merges.
func TestStaticSemanticsOnFigure1(t *testing.T) {
	f := fixtures.New()
	spec := FromLACE(f.Spec)
	if len(spec.Hard) != 2 || len(spec.Soft) != 3 {
		t.Fatalf("conversion lost rules: %d hard, %d soft", len(spec.Hard), len(spec.Soft))
	}
	// The pivot algorithm is randomized (that is Dedupalog's design: an
	// approximately optimal clustering), so scan seeds and assert
	// seed-independent invariants plus reachability of the lossy
	// behaviours.
	var sawAlphaBeta, sawEta bool
	for seed := int64(0); seed < 30; seed++ {
		part, err := Cluster(f.DB, spec, f.Sims, seed)
		if err != nil {
			t.Fatal(err)
		}
		pair := func(a, b string) bool { return part.Same(f.Const(a), f.Const(b)) }
		// Invariant: the recursive merges are invisible statically, on
		// every seed — θ needs ζ applied first, κ needs θ.
		if pair("p2", "p3") {
			t.Fatalf("seed %d: baseline found θ = (p2,p3); it requires the conference merge first", seed)
		}
		if pair("a4", "a5") {
			t.Fatalf("seed %d: baseline found κ = (a4,a5); it requires the paper merge first", seed)
		}
		if pair("a1", "a2") && pair("a2", "a3") {
			sawAlphaBeta = true
		}
		// η = (c3,c4): LACE blocks it via δ3; the baseline has no
		// constraint machinery, so some pivot order merges it.
		if pair("c3", "c4") {
			sawEta = true
		}
	}
	if !sawAlphaBeta {
		t.Error("no seed recovered the direct author merges α, β")
	}
	if !sawEta {
		t.Error("no seed merged η: constraint-free baseline should allow it")
	}

	// LACE, by contrast, certifies θ and κ and rejects η.
	e, err := core.New(f.DB, f.Spec, f.Sims, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	certTheta, err := e.IsCertainMergeCtx(context.Background(), f.Const("p2"), f.Const("p3"))
	if err != nil {
		t.Fatal(err)
	}
	possEta, err := e.IsPossibleMergeCtx(context.Background(), f.Const("c3"), f.Const("c4"))
	if err != nil {
		t.Fatal(err)
	}
	if !certTheta || possEta {
		t.Errorf("LACE reference: certTheta=%v possEta=%v", certTheta, possEta)
	}
}

// TestClusterDeterminism: the same seed yields the same clustering.
func TestClusterDeterminism(t *testing.T) {
	f := fixtures.New()
	spec := FromLACE(f.Spec)
	a, err := Cluster(f.DB, spec, f.Sims, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(f.DB, spec, f.Sims, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("same seed produced different clusterings")
	}
}

// TestNegSoftVotes: negative votes can cancel positive ones.
func TestNegSoftVotes(t *testing.T) {
	f := fixtures.New()
	spec := FromLACE(f.Spec)
	// Vote against every pair that σ2 votes for: authors cancel out.
	spec.NegSoft = append(spec.NegSoft, spec.Soft[1]) // sigma2
	part, err := Cluster(f.DB, spec, f.Sims, 1)
	if err != nil {
		t.Fatal(err)
	}
	if part.Same(f.Const("a1"), f.Const("a2")) {
		t.Error("cancelled votes still produced a merge")
	}
	// Conference votes (σ1) are unaffected.
	if !part.Same(f.Const("c2"), f.Const("c3")) {
		t.Error("unrelated votes affected by cancellation")
	}
}

// TestHardRulesUnconditional: hard rules merge regardless of votes.
func TestHardRulesUnconditional(t *testing.T) {
	f := fixtures.New()
	spec := &Spec{Hard: FromLACE(f.Spec).Soft[:1]} // treat σ1 as hard
	part, err := Cluster(f.DB, spec, f.Sims, 123)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Same(f.Const("c2"), f.Const("c3")) || !part.Same(f.Const("c3"), f.Const("c4")) {
		t.Error("hard must-links not applied")
	}
}
