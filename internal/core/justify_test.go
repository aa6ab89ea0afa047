package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/eqrel"
)

// TestExample5JustifyZeta reproduces Example 5: the merge ζ = (c2, c3)
// has a one-step justification via σ1 supported by the two Conference
// facts and n2 ≈ n3.
func TestExample5JustifyZeta(t *testing.T) {
	e, f := fig1Engine(t)
	sol := m1(e, f)
	j, err := e.Justify(sol, f.Const("c2"), f.Const("c3"))
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Steps) == 0 {
		t.Fatal("empty justification")
	}
	last := j.Steps[len(j.Steps)-1]
	if last.Pair != pairOf(f, "c2", "c3") {
		t.Fatalf("justification ends with %v, want (c2,c3)", last.Pair)
	}
	// The replay derives ζ in the first stage via σ1, so the
	// justification should be the one-step one of Example 5.
	if len(j.Steps) != 1 {
		t.Errorf("got %d steps, want the 1-step justification:\n%s",
			len(j.Steps), j.Format(f.DB.Interner()))
	}
	if last.Kind != RuleApp || last.Rule != "sigma1" {
		t.Errorf("step = %+v, want rule application of sigma1", last)
	}
	if len(last.Facts) != 2 {
		t.Errorf("supporting facts = %v, want the two Conference facts", last.Facts)
	}
	for _, fact := range last.Facts {
		if fact.Rel != "Conference" {
			t.Errorf("unexpected supporting fact %v", fact)
		}
	}
	if len(last.Sims) != 1 || last.Sims[0].Pred != "approx" {
		t.Errorf("sim facts = %v, want one approx fact", last.Sims)
	}
}

// TestJustifyKappa: κ = (a4, a5) needs θ = (p2, p3) first (ρ1 joins the
// two CorrAuth facts via the paper merge), and θ in turn needs ζ.
func TestJustifyKappa(t *testing.T) {
	e, f := fig1Engine(t)
	sol := m1(e, f)
	j, err := e.Justify(sol, f.Const("a4"), f.Const("a5"))
	if err != nil {
		t.Fatal(err)
	}
	last := j.Steps[len(j.Steps)-1]
	if last.Kind != RuleApp || last.Rule != "rho1" {
		t.Fatalf("κ must be justified by rho1, got %+v", last)
	}
	// Its dependencies must include the paper merge θ.
	foundTheta := false
	for _, d := range last.Deps {
		if d == pairOf(f, "p2", "p3") {
			foundTheta = true
		}
	}
	if !foundTheta {
		t.Errorf("κ's rule application should join via θ, deps = %v", last.Deps)
	}
	// And θ must be justified earlier in the sequence.
	seen := map[eqrel.Pair]int{}
	for i, s := range j.Steps {
		seen[s.Pair] = i
	}
	ti, ok := seen[pairOf(f, "p2", "p3")]
	if !ok {
		t.Fatal("θ not justified in the sequence")
	}
	if ti >= len(j.Steps)-1 {
		t.Error("θ justified after κ")
	}
	// θ's own step must depend on ζ (the conference merge joins the
	// Paper facts).
	theta := j.Steps[ti]
	foundZeta := false
	for _, d := range theta.Deps {
		if d == pairOf(f, "c2", "c3") {
			foundZeta = true
		}
	}
	if !foundZeta {
		t.Errorf("θ should join via ζ, deps = %v", theta.Deps)
	}
}

// TestJustifyTransitivePair: (a1, a3) is only in solutions via
// transitivity of α and β.
func TestJustifyTransitivePair(t *testing.T) {
	e, f := fig1Engine(t)
	sol := m1(e, f)
	j, err := e.Justify(sol, f.Const("a1"), f.Const("a3"))
	if err != nil {
		t.Fatal(err)
	}
	last := j.Steps[len(j.Steps)-1]
	if last.Pair != pairOf(f, "a1", "a3") {
		t.Fatalf("last step %v, want (a1,a3)", last.Pair)
	}
	if last.Kind != Transitive {
		t.Fatalf("expected a transitivity step, got %+v", last)
	}
	// Both α and β must appear earlier.
	var haveAlpha, haveBeta bool
	for _, s := range j.Steps[:len(j.Steps)-1] {
		if s.Pair == pairOf(f, "a1", "a2") {
			haveAlpha = true
		}
		if s.Pair == pairOf(f, "a2", "a3") {
			haveBeta = true
		}
	}
	if !haveAlpha || !haveBeta {
		t.Errorf("transitive justification missing α or β:\n%s", j.Format(f.DB.Interner()))
	}
}

// TestJustificationSoundness: in every justification, each rule
// application's dependencies are justified by strictly earlier steps,
// and every step's pair is in the solution.
func TestJustificationSoundness(t *testing.T) {
	e, f := fig1Engine(t)
	sol := m1(e, f)
	for _, p := range sol.Pairs() {
		j, err := e.Justify(sol, p.A, p.B)
		if err != nil {
			t.Fatalf("justify %v: %v", p, err)
		}
		pos := map[eqrel.Pair]int{}
		for i, s := range j.Steps {
			if !sol.Same(s.Pair.A, s.Pair.B) {
				t.Errorf("step pair %v not in solution", s.Pair)
			}
			switch s.Kind {
			case RuleApp:
				for _, d := range s.Deps {
					di, ok := pos[d]
					if !ok || di >= i {
						t.Errorf("justify %v: dep %v of step %d not justified earlier", p, d, i)
					}
				}
				// Supporting facts must be original database facts.
				for _, fact := range s.Facts {
					if !f.DB.Contains(fact.Rel, fact.Args...) {
						t.Errorf("witness fact %v not in the original database", fact)
					}
				}
			case Transitive:
				li, lok := pos[s.Left]
				ri, rok := pos[s.Right]
				if !lok || !rok || li >= i || ri >= i {
					t.Errorf("justify %v: transitive step %d uses unjustified pairs", p, i)
				}
				// The chained pairs must share an endpoint.
				share := s.Left.A == s.Right.A || s.Left.A == s.Right.B ||
					s.Left.B == s.Right.A || s.Left.B == s.Right.B
				if !share {
					t.Errorf("transitive step %v from disjoint pairs %v, %v", s.Pair, s.Left, s.Right)
				}
			}
			pos[s.Pair] = i
		}
		if j.Steps[len(j.Steps)-1].Pair != p {
			t.Errorf("justification for %v ends with %v", p, j.Steps[len(j.Steps)-1].Pair)
		}
	}
}

// TestJustifyErrors: reflexive and out-of-solution pairs are rejected.
func TestJustifyErrors(t *testing.T) {
	e, f := fig1Engine(t)
	sol := m1(e, f)
	if _, err := e.Justify(sol, f.Const("a1"), f.Const("a1")); err == nil {
		t.Error("reflexive justification accepted")
	}
	if _, err := e.Justify(sol, f.Const("a6"), f.Const("a7")); err == nil {
		t.Error("justified a pair outside the solution (χ ∉ M1)")
	}
}

// TestReplayReconstructsSolutions: replay rebuilds each maximal solution
// exactly.
func TestReplayReconstructsSolutions(t *testing.T) {
	e, _ := fig1Engine(t)
	maximal, err := e.MaximalSolutionsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range maximal {
		d, err := e.replay(m)
		if err != nil {
			t.Fatal(err)
		}
		// The union of all derived pairs must close to the solution.
		got := e.Identity()
		for _, s := range d.steps {
			got.Add(s.Pair)
		}
		if !got.Equal(m) {
			t.Errorf("replay steps close to %v, want %v", got, m)
		}
	}
}

// TestReplayRejectsNonCandidate: replay of an arbitrary equivalence
// relation must fail.
func TestReplayRejectsNonCandidate(t *testing.T) {
	e, f := fig1Engine(t)
	bogus := e.FromPairs([]eqrel.Pair{pairOf(f, "a1", "a4")})
	if _, err := e.replay(bogus); err == nil {
		t.Error("replay of a non-candidate succeeded")
	}
}

// TestJustificationFormat is a smoke test for the human-readable form.
func TestJustificationFormat(t *testing.T) {
	e, f := fig1Engine(t)
	sol := m1(e, f)
	j, err := e.Justify(sol, f.Const("a4"), f.Const("a5"))
	if err != nil {
		t.Fatal(err)
	}
	out := j.Format(f.DB.Interner())
	for _, want := range []string{"rho1", "CorrAuth", "(a4,a5)"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted justification missing %q:\n%s", want, out)
		}
	}
}
