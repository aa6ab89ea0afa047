package core

import (
	"context"
	"testing"

	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/fixtures"
	"repro/internal/rules"
)

// fig1Engine builds an engine over the paper's running example.
func fig1Engine(t *testing.T) (*Engine, *fixtures.Figure1) {
	t.Helper()
	f := fixtures.New()
	e, err := New(f.DB, f.Spec, f.Sims, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e, f
}

// pairOf builds the eqrel pair for two named constants.
func pairOf(f *fixtures.Figure1, a, b string) eqrel.Pair {
	return eqrel.MakePair(f.Const(a), f.Const(b))
}

// m1 and m2 build the two maximal solutions of Example 4.
func m1(e *Engine, f *fixtures.Figure1) *eqrel.Partition {
	return e.FromPairs([]eqrel.Pair{
		pairOf(f, "a1", "a2"), pairOf(f, "a2", "a3"), // α, β
		pairOf(f, "c2", "c3"),                        // ζ
		pairOf(f, "p2", "p3"), pairOf(f, "p4", "p5"), // θ, λ
		pairOf(f, "a4", "a5"), // κ
	})
}

func m2(e *Engine, f *fixtures.Figure1) *eqrel.Partition {
	return e.FromPairs([]eqrel.Pair{
		pairOf(f, "a1", "a2"), pairOf(f, "a2", "a3"),
		pairOf(f, "c2", "c3"),
		pairOf(f, "p2", "p3"), pairOf(f, "a6", "a7"), // θ, χ
		pairOf(f, "a4", "a5"),
	})
}

// TestExample4MaximalSolutions verifies MaxSol(Dex, Σex) = {M1, M2}.
func TestExample4MaximalSolutions(t *testing.T) {
	e, f := fig1Engine(t)
	maximal, err := e.MaximalSolutionsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(maximal) != 2 {
		for _, m := range maximal {
			t.Logf("maximal: %s", m.Format(f.DB.Interner()))
		}
		t.Fatalf("got %d maximal solutions, want 2", len(maximal))
	}
	w1, w2 := m1(e, f), m2(e, f)
	found1, found2 := false, false
	for _, m := range maximal {
		if m.Equal(w1) {
			found1 = true
		}
		if m.Equal(w2) {
			found2 = true
		}
	}
	if !found1 || !found2 {
		for _, m := range maximal {
			t.Logf("maximal: %s", m.Format(f.DB.Interner()))
		}
		t.Errorf("M1 found=%v, M2 found=%v", found1, found2)
	}
}

// TestExample4InitialState checks that the identity is not a solution
// (δ1 is violated by a1, a2, a3 all being first author of p1).
func TestExample4InitialState(t *testing.T) {
	e, _ := fig1Engine(t)
	id := e.Identity()
	ok := e.IsSolution(id)
	if ok {
		t.Error("E0 must not be a solution: δ1 is initially violated")
	}
	viol := e.ViolatedDenials(id)
	if len(viol) != 1 || viol[0] != "delta1" {
		t.Errorf("violated denials = %v, want [delta1]", viol)
	}
}

// TestExample4ActivePairs checks the initially active pairs
// α, β, χ (σ2) and ζ, η (σ1).
func TestExample4ActivePairs(t *testing.T) {
	e, f := fig1Engine(t)
	act, err := e.ActivePairs(e.Identity())
	if err != nil {
		t.Fatal(err)
	}
	want := map[eqrel.Pair]string{
		pairOf(f, "a1", "a2"): "sigma2",
		pairOf(f, "a2", "a3"): "sigma2",
		pairOf(f, "a6", "a7"): "sigma2",
		pairOf(f, "c2", "c3"): "sigma1",
		pairOf(f, "c3", "c4"): "sigma1",
	}
	if len(act) != len(want) {
		t.Fatalf("got %d active pairs, want %d: %v", len(act), len(want), act)
	}
	for _, a := range act {
		rule, ok := want[a.Pair]
		if !ok {
			t.Errorf("unexpected active pair %v", a.Pair)
			continue
		}
		if a.Hard {
			t.Errorf("pair %v should be soft-active only", a.Pair)
		}
		found := false
		for _, r := range a.Rules {
			if r == rule {
				found = true
			}
		}
		if !found {
			t.Errorf("pair %v derived by %v, want %s", a.Pair, a.Rules, rule)
		}
	}
}

// TestExample4HardClosure: after α and β, hard rule ρ2 forces ζ, and
// after θ, hard rule ρ1 forces κ.
func TestExample4HardClosure(t *testing.T) {
	e, f := fig1Engine(t)
	E := e.FromPairs([]eqrel.Pair{pairOf(f, "a1", "a2"), pairOf(f, "a2", "a3")})
	ok := e.SatisfiesHard(E)
	if ok {
		t.Error("E1 = {α, β} should violate hard rule ρ2")
	}
	if err := e.HardClose(E); err != nil {
		t.Fatal(err)
	}
	if !E.Same(f.Const("c2"), f.Const("c3")) {
		t.Error("hard closure of {α, β} must contain ζ = (c2, c3)")
	}
	// Now add θ; ρ1 forces κ.
	E.Add(pairOf(f, "p2", "p3"))
	if err := e.HardClose(E); err != nil {
		t.Fatal(err)
	}
	if !E.Same(f.Const("a4"), f.Const("a5")) {
		t.Error("hard closure after θ must contain κ = (a4, a5)")
	}
}

// TestExample4SolutionRecognition: E2 = {α, β, ζ} closure is a solution
// but not maximal; M1 is a maximal solution.
func TestExample4SolutionRecognition(t *testing.T) {
	e, f := fig1Engine(t)
	e2 := e.FromPairs([]eqrel.Pair{
		pairOf(f, "a1", "a2"), pairOf(f, "a2", "a3"), pairOf(f, "c2", "c3"),
	})
	ok := e.IsSolution(e2)
	if !ok {
		t.Error("E2 should be a solution")
	}
	maxOK, err := e.IsMaximalSolution(context.Background(), e2)
	if err != nil {
		t.Fatal(err)
	}
	if maxOK {
		t.Error("E2 is not maximal (θ, λ, χ are addable)")
	}
	w1 := m1(e, f)
	ok = e.IsSolution(w1)
	if !ok {
		t.Error("M1 should be a solution")
	}
	maxOK, err = e.IsMaximalSolution(context.Background(), w1)
	if err != nil {
		t.Fatal(err)
	}
	if !maxOK {
		t.Error("M1 should be maximal")
	}
}

// TestExample4NonCandidate: an equivalence relation whose merges cannot
// be derived by any rule is not a solution even if consistent.
func TestExample4NonCandidate(t *testing.T) {
	e, f := fig1Engine(t)
	// (a1, a4): no rule ever derives this pair.
	E := e.FromPairs([]eqrel.Pair{pairOf(f, "a1", "a4")})
	cand := e.IsCandidate(E)
	if cand {
		t.Error("(a1,a4) merge is not derivable, must not be a candidate")
	}
	ok := e.IsSolution(E)
	if ok {
		t.Error("non-candidate accepted as solution")
	}
}

// TestExample4MixedSolutionViolation: extending M1 with χ violates δ2.
func TestExample4MixedSolutionViolation(t *testing.T) {
	e, f := fig1Engine(t)
	E := m1(e, f)
	E.Add(pairOf(f, "a6", "a7"))
	ok := e.SatisfiesDenials(E)
	if ok {
		t.Error("M1 + χ should violate δ2")
	}
	// And extending {α,β,ζ} with both ζ and η violates δ3.
	E2 := e.FromPairs([]eqrel.Pair{
		pairOf(f, "a1", "a2"), pairOf(f, "a2", "a3"),
		pairOf(f, "c2", "c3"), pairOf(f, "c3", "c4"),
	})
	ok = e.SatisfiesDenials(E2)
	if ok {
		t.Error("ζ + η should violate δ3 (a1 chairs c2 and wrote p6 at merged conference)")
	}
}

// TestExample6Merges verifies the certain/possible merge classification
// of Example 6.
func TestExample6Merges(t *testing.T) {
	e, f := fig1Engine(t)
	certain := []eqrel.Pair{
		pairOf(f, "a1", "a2"), pairOf(f, "a2", "a3"), // α, β
		pairOf(f, "c2", "c3"), pairOf(f, "p2", "p3"), // ζ, θ
		pairOf(f, "a4", "a5"), // κ
	}
	possibleOnly := []eqrel.Pair{
		pairOf(f, "a6", "a7"), pairOf(f, "p4", "p5"), // χ, λ
	}
	impossible := []eqrel.Pair{
		pairOf(f, "c3", "c4"), // η
		pairOf(f, "c2", "c4"),
		pairOf(f, "a1", "a4"),
	}
	for _, p := range certain {
		if !isCertainMerge(t, e, p.A, p.B) {
			t.Errorf("pair %v should be a certain merge", p)
		}
	}
	for _, p := range possibleOnly {
		cm := isCertainMerge(t, e, p.A, p.B)
		pm, err := e.IsPossibleMergeCtx(context.Background(), p.A, p.B)
		if err != nil {
			t.Fatal(err)
		}
		if cm || !pm {
			t.Errorf("pair %v: certain=%v possible=%v, want possible only", p, cm, pm)
		}
	}
	for _, p := range impossible {
		pm, err := e.IsPossibleMergeCtx(context.Background(), p.A, p.B)
		if err != nil {
			t.Fatal(err)
		}
		if pm {
			t.Errorf("pair %v should not be a possible merge", p)
		}
	}
}

// TestMergeSets checks the aggregate CertainMerges / PossibleMerges sets
// against Example 6 (including transitive closure pairs like (a1,a3)).
func TestMergeSets(t *testing.T) {
	e, f := fig1Engine(t)
	cm, err := e.CertainMergesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// α, β, (a1,a3), ζ, θ, κ = 6 pairs.
	if len(cm) != 6 {
		t.Errorf("got %d certain merges, want 6: %v", len(cm), cm)
	}
	pm, err := e.PossibleMergesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// certain plus χ and λ.
	if len(pm) != 8 {
		t.Errorf("got %d possible merges, want 8: %v", len(pm), pm)
	}
	has := func(ps []eqrel.Pair, want eqrel.Pair) bool {
		for _, p := range ps {
			if p == want {
				return true
			}
		}
		return false
	}
	if !has(cm, pairOf(f, "a1", "a3")) {
		t.Error("certain merges missing transitive pair (a1,a3)")
	}
	if has(cm, pairOf(f, "p4", "p5")) {
		t.Error("λ wrongly certain")
	}
	if !has(pm, pairOf(f, "p4", "p5")) || !has(pm, pairOf(f, "a6", "a7")) {
		t.Error("possible merges missing χ or λ")
	}
	if has(pm, pairOf(f, "c3", "c4")) {
		t.Error("η wrongly possible")
	}
}

// TestExistenceFigure1: solutions exist.
func TestExistenceFigure1(t *testing.T) {
	e, _ := fig1Engine(t)
	sol, ok, err := e.ExistenceCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !ok || sol == nil {
		t.Fatal("Figure 1 instance should have solutions")
	}
	isSol := e.IsSolution(sol)
	if !isSol {
		t.Error("Existence witness is not a solution")
	}
}

// TestQueryAnswers exercises certain/possible answers over the running
// example (Definition 6).
func TestQueryAnswers(t *testing.T) {
	e, f := fig1Engine(t)
	in := f.DB.Interner()

	// "Some author id has both mnk emails" — true exactly in M2 (χ).
	qChi, err := rules.ParseQuery(
		`Author(x,"mnk@tku.jp",u), Author(x,"mnk@gm.com",u2)`, f.Schema, in, f.Sims)
	if err != nil {
		t.Fatal(err)
	}
	poss, err := e.IsPossibleAnswerCtx(context.Background(), qChi, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cert := isCertainBoolean(t, e, qChi); !poss || cert {
		t.Errorf("χ-query: possible=%v certain=%v, want possible only", poss, cert)
	}

	// "Some paper id has both Declarative ER titles" — true in both
	// maximal solutions (θ is certain).
	qTheta, err := rules.ParseQuery(
		`Paper(x,"Declarative ER",c), Paper(x,"Declarative ER (Ext Abst)",c2)`, f.Schema, in, f.Sims)
	if err != nil {
		t.Fatal(err)
	}
	if !isCertainBoolean(t, e, qTheta) {
		t.Error("θ-query should be certain")
	}

	// Unsatisfiable anywhere: a conference named PODS in 2019.
	qNo, err := rules.ParseQuery(`Conference(x,"PODS","2019")`, f.Schema, in, f.Sims)
	if err != nil {
		t.Fatal(err)
	}
	poss, err = e.IsPossibleAnswerCtx(context.Background(), qNo, []db.Const{f.Const("c1")})
	if err != nil {
		t.Fatal(err)
	}
	if poss {
		t.Error("impossible answer reported possible")
	}

	// Non-Boolean: conferences with a chair. Representative answer is
	// the class {c2,c3}; expansion must include both.
	qChair, err := rules.ParseQuery(`(x) : Conference(x,n,y), Chair(x,a)`, f.Schema, in, f.Sims)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.CertainAnswersCtx(context.Background(), qChair)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 {
		t.Fatalf("certain chair answers = %v, want 2 tuples (c2, c3)", ans)
	}
	got := map[db.Const]bool{ans[0][0]: true, ans[1][0]: true}
	if !got[f.Const("c2")] || !got[f.Const("c3")] {
		t.Errorf("certain answers = %v, want {c2},{c3}", ans)
	}
}

// TestAnswersMonotoneUnderSolutions: a tuple answerable in the identity
// stays answerable in every solution (homomorphism preservation).
func TestAnswersMonotoneUnderSolutions(t *testing.T) {
	e, f := fig1Engine(t)
	q, err := rules.ParseQuery(`(x) : Wrote(p, x, z), CorrAuth(p, x)`, f.Schema, f.DB.Interner(), f.Sims)
	if err != nil {
		t.Fatal(err)
	}
	id := e.Identity()
	base, err := e.AnswersIn(q, id)
	if err != nil {
		t.Fatal(err)
	}
	maximal, err := e.MaximalSolutionsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range maximal {
		for _, tuple := range base {
			ok, err := e.HoldsIn(q, tuple, m)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Errorf("answer %v lost in solution %s", tuple, m.Format(f.DB.Interner()))
			}
		}
	}
}
