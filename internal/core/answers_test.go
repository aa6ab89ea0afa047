package core

import (
	"context"
	"testing"

	"repro/internal/db"
	"repro/internal/rules"
)

// TestQueryWithFreshConstant: a query constant interned after engine
// construction must not panic and must simply never match.
func TestQueryWithFreshConstant(t *testing.T) {
	e, f := fig1Engine(t)
	q, err := rules.ParseQuery(`Author(x,"nobody@nowhere.xx",u)`, f.Schema, f.DB.Interner(), f.Sims)
	if err != nil {
		t.Fatal(err)
	}
	poss, err := e.IsPossibleAnswerCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if poss {
		t.Error("query over a fresh constant reported possible")
	}
	if isCertainBoolean(t, e, q) {
		t.Error("query over a fresh constant reported certain")
	}
}

// TestPossibleAnswersExpansion: non-Boolean possible answers expand
// representative tuples into all class members. Papers at the merged
// conference {c2, c3}: p2..p5 (and p2~p3, p4~p5 in the λ-solution).
func TestPossibleAnswersExpansion(t *testing.T) {
	e, f := fig1Engine(t)
	q, err := rules.ParseQuery(`(p) : Paper(p, t, c), Chair(c, a)`, f.Schema, f.DB.Interner(), f.Sims)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.PossibleAnswersCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[db.Const]bool)
	for _, tup := range ans {
		got[tup[0]] = true
	}
	// All of p2..p5 sit at conferences chaired by someone in every
	// maximal solution (c2~c3 merged, chairs a1/a3 merged).
	for _, p := range []string{"p2", "p3", "p4", "p5"} {
		if !got[f.Const(p)] {
			t.Errorf("possible answers missing %s: %v", p, ans)
		}
	}
	if got[f.Const("p1")] || got[f.Const("p6")] {
		t.Errorf("papers at unchaired conferences wrongly answered: %v", ans)
	}
	// Certain answers coincide here (the chair structure is certain).
	cert, err := e.CertainAnswersCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cert) != len(ans) {
		t.Errorf("certain %d != possible %d, but the chair structure is certain", len(cert), len(ans))
	}
}

// TestAnswersInTupleArityMismatch: HoldsIn with wrong arity is false,
// not an error.
func TestAnswersInTupleArityMismatch(t *testing.T) {
	e, f := fig1Engine(t)
	q, err := rules.ParseQuery(`(x) : Chair(x, a)`, f.Schema, f.DB.Interner(), f.Sims)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := e.HoldsIn(q, []db.Const{f.Const("c2"), f.Const("c3")}, e.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("arity-mismatched tuple accepted")
	}
}

// TestEngineReuse: repeated queries on one engine agree (the induced
// cache must be transparent).
func TestEngineReuse(t *testing.T) {
	e, f := fig1Engine(t)
	for i := 0; i < 3; i++ {
		cm, err := e.CertainMergesCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(cm) != 6 {
			t.Fatalf("iteration %d: certain merges = %d", i, len(cm))
		}
	}
	ok, err := e.IsPossibleMergeCtx(context.Background(), f.Const("a6"), f.Const("a7"))
	if err != nil || !ok {
		t.Errorf("possible merge after reuse: %v %v", ok, err)
	}
}
