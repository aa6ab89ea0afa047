package reductions

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/eqrel"
)

// TestTheorem1HornAll: φ |= v1 ∧ ... ∧ vn iff E_V ∈ Sol(D^φ, Σ).
func TestTheorem1HornAll(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		h := RandomHorn(rng, 4+rng.Intn(3), 1+rng.Intn(2), 3+rng.Intn(5))
		d, spec, ev, err := HornAllInstance(h)
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.New(d, spec, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := e.IsSolution(ev)
		want := h.EntailsAll()
		if got != want {
			t.Fatalf("trial %d: Rec = %v, Horn-All = %v\nformula: %+v", trial, got, want, h)
		}
	}
}

// TestTheorem1Chain: the deterministic chain formula always entails all
// variables, at every size.
func TestTheorem1Chain(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10, 20} {
		h := ChainHorn(n)
		if !h.EntailsAll() {
			t.Fatalf("chain(%d) should entail all variables", n)
		}
		d, spec, ev, err := HornAllInstance(h)
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.New(d, spec, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ok := e.IsSolution(ev)
		if !ok {
			t.Errorf("chain(%d): E_V not recognized as a solution", n)
		}
	}
}

// TestTheorem2Existence: φ satisfiable iff Sol(D_φ, Σ3SAT) ≠ ∅.
func TestTheorem2Existence(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	sawSat, sawUnsat := false, false
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(3)
		phi := Random3CNF(rng, n, 2+rng.Intn(3*n))
		_, want := phi.Satisfiable()
		d, spec, err := ExistenceInstance(phi)
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.New(d, spec, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := e.ExistenceCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: Existence = %v, SAT = %v\nφ = %+v", trial, got, want, phi)
		}
		if want {
			sawSat = true
		} else {
			sawUnsat = true
		}
	}
	if !sawSat || !sawUnsat {
		t.Logf("warning: coverage sat=%v unsat=%v", sawSat, sawUnsat)
	}
}

// TestTheorem12ExistenceFD: the FD-only construction agrees with SAT,
// and its denials really are functional dependencies.
func TestTheorem12ExistenceFD(t *testing.T) {
	rng := rand.New(rand.NewSource(1212))
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(3)
		phi := Random3CNF(rng, n, 2+rng.Intn(3*n))
		_, want := phi.Satisfiable()
		d, spec, err := ExistenceInstanceFD(phi)
		if err != nil {
			t.Fatal(err)
		}
		if !spec.FDsOnly() {
			t.Fatal("Theorem 12 spec is not FD-only")
		}
		e, err := core.New(d, spec, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := e.ExistenceCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: ExistenceFD = %v, SAT = %v\nφ = %+v", trial, got, want, phi)
		}
	}
}

// TestTheorem3MaxRec: φ unsatisfiable iff the identity is a maximal
// solution of (D_C^φ, Σ'3SAT).
func TestTheorem3MaxRec(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(2)
		phi := Random3CNF(rng, n, 2+rng.Intn(3*n))
		_, sat := phi.Satisfiable()
		d, spec, err := MaxRecInstance(phi)
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.New(d, spec, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.IsMaximalSolution(context.Background(), e.Identity())
		if err != nil {
			t.Fatal(err)
		}
		if got != !sat {
			t.Fatalf("trial %d: MaxRec(identity) = %v, SAT = %v\nφ = %+v", trial, got, sat, phi)
		}
	}
}

// TestTheorem5PossMerge: φ satisfiable iff (c1, c2) is a possible merge.
func TestTheorem5PossMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(3)
		phi := Random3CNF(rng, n, 2+rng.Intn(3*n))
		_, want := phi.Satisfiable()
		d, spec, c1, c2, err := PossMergeInstance(phi)
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.New(d, spec, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.IsPossibleMergeCtx(context.Background(), c1, c2)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: PossMerge = %v, SAT = %v\nφ = %+v", trial, got, want, phi)
		}
	}
}

// TestTheorem4CertMerge: Φ = ∀X∃Y.ψ valid iff (c, c′) is a certain
// merge. Small instances only: the native check enumerates the full
// solution space.
func TestTheorem4CertMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	sawValid, sawInvalid := false, false
	for trial := 0; trial < 8; trial++ {
		q := RandomQBF(rng, 2, 2, 2+rng.Intn(3))
		want := q.Valid()
		d, spec, cm, cmp, err := CertMergeInstance(q)
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.New(d, spec, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		certain, err := e.CertainMergesCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got := slices.Contains(certain, eqrel.MakePair(cm, cmp))
		if got != want {
			t.Fatalf("trial %d: CertMerge = %v, Valid = %v\nΦ = %+v", trial, got, want, q)
		}
		if want {
			sawValid = true
		} else {
			sawInvalid = true
		}
	}
	if !sawValid || !sawInvalid {
		t.Logf("warning: coverage valid=%v invalid=%v", sawValid, sawInvalid)
	}
}

// TestTheorem6CertAnswer: Φ valid iff ∃z.C(z) ∧ CP(z) is a certain
// answer.
func TestTheorem6CertAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 6; trial++ {
		q := RandomQBF(rng, 2, 2, 2+rng.Intn(3))
		want := q.Valid()
		d, spec, query, err := CertAnswerInstance(q)
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.New(d, spec, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ans, err := e.CertainAnswersCtx(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		got := len(ans) > 0
		if got != want {
			t.Fatalf("trial %d: CertAnswer = %v, Valid = %v\nΦ = %+v", trial, got, want, q)
		}
	}
}

// TestTheorem7PossAnswer: φ satisfiable iff ∃z.C1(z) ∧ C2(z) is a
// possible answer.
func TestTheorem7PossAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(3)
		phi := Random3CNF(rng, n, 2+rng.Intn(3*n))
		_, want := phi.Satisfiable()
		d, spec, query, err := PossAnswerInstance(phi)
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.New(d, spec, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.IsPossibleAnswerCtx(context.Background(), query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: PossAnswer = %v, SAT = %v\nφ = %+v", trial, got, want, phi)
		}
	}
}

// TestReferenceSolvers sanity-checks the reference CNF / Horn / QBF
// deciders on known instances.
func TestReferenceSolvers(t *testing.T) {
	// (x1 ∨ x2 ∨ x3) ∧ (¬x1 ∨ ¬x2 ∨ ¬x3): satisfiable.
	phi := CNF{NumVars: 3, Clauses: []Clause3{
		{Lit{1, false}, Lit{2, false}, Lit{3, false}},
		{Lit{1, true}, Lit{2, true}, Lit{3, true}},
	}}
	if _, ok := phi.Satisfiable(); !ok {
		t.Error("satisfiable CNF reported UNSAT")
	}
	// x1 ∧ ¬x1 padded to 3 literals: unsatisfiable.
	unsat := CNF{NumVars: 3, Clauses: []Clause3{
		{Lit{1, false}, Lit{1, false}, Lit{1, false}},
		{Lit{1, true}, Lit{1, true}, Lit{1, true}},
	}}
	if _, ok := unsat.Satisfiable(); ok {
		t.Error("unsatisfiable CNF reported SAT")
	}

	h := HornFormula{NumVars: 2, Clauses: []HornClause{
		{Head: 1}, {B1: 1, B2: 1, Head: 2},
	}}
	if !h.EntailsAll() {
		t.Error("entailing Horn formula rejected")
	}
	h2 := HornFormula{NumVars: 2, Clauses: []HornClause{{Head: 1}}}
	if h2.EntailsAll() {
		t.Error("non-entailing Horn formula accepted")
	}

	// ∀x1 ∃y2: (x1 ∨ y2 ∨ y2) ∧ (¬x1 ∨ ¬y2 ∨ ¬y2) — valid (y2 = ¬x1).
	valid := QBF{NumX: 1, NumY: 1, Clauses: []Clause3{
		{Lit{1, false}, Lit{2, false}, Lit{2, false}},
		{Lit{1, true}, Lit{2, true}, Lit{2, true}},
	}}
	if !valid.Valid() {
		t.Error("valid QBF rejected")
	}
	// ∀x1 ∃y2: (x1 ∨ x1 ∨ x1) — invalid (x1 = false).
	invalid := QBF{NumX: 1, NumY: 1, Clauses: []Clause3{
		{Lit{1, false}, Lit{1, false}, Lit{1, false}},
	}}
	if invalid.Valid() {
		t.Error("invalid QBF accepted")
	}
}

// TestClauseType checks polarity naming.
func TestClauseType(t *testing.T) {
	c := Clause3{Lit{1, false}, Lit{2, true}, Lit{3, false}}
	if got := clauseType(c); got != "tft" {
		t.Errorf("clauseType = %q, want tft", got)
	}
}
