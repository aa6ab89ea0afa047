package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/rules"
	"repro/internal/workload"
)

func TestScoreSolutionWeights(t *testing.T) {
	// Simpler, deterministic setup: two independent soft merges with
	// weights 3 and 1, no constraints.
	e, d := tinySetup(t,
		func(s *db.Schema) {
			s.MustAdd("S1", "a", "b")
			s.MustAdd("S2", "a", "b")
		},
		func(d *db.Database) {
			d.MustInsert("S1", "u", "v")
			d.MustInsert("S2", "x", "y")
		},
		`soft heavy: S1(a,b) ~> EQ(a,b).
		 soft light: S2(a,b) ~> EQ(a,b).`,
		nil)
	e.Spec().Rules[0].Weight = 3
	e.Spec().Rules[1].Weight = 1

	full := e.Identity()
	if err := e.AllClose(full); err != nil {
		t.Fatal(err)
	}
	score, err := e.ScoreSolution(full)
	if err != nil {
		t.Fatal(err)
	}
	if score != 4 {
		t.Errorf("full solution score = %v, want 4", score)
	}
	onlyHeavy := e.FromPairs(nil)
	onlyHeavy.Union(lookup(t, d, "u"), lookup(t, d, "v"))
	score, err = e.ScoreSolution(onlyHeavy)
	if err != nil {
		t.Fatal(err)
	}
	if score != 3 {
		t.Errorf("heavy-only score = %v, want 3", score)
	}
	id := e.Identity()
	score, err = e.ScoreSolution(id)
	if err != nil {
		t.Fatal(err)
	}
	if score != 0 {
		t.Errorf("identity score = %v, want 0", score)
	}
}

func TestNegSoftScoring(t *testing.T) {
	e, d := tinySetup(t,
		func(s *db.Schema) {
			s.MustAdd("S", "a", "b")
			s.MustAdd("Avoid", "a", "b")
		},
		func(d *db.Database) {
			d.MustInsert("S", "u", "v")
			d.MustInsert("Avoid", "u", "v")
		},
		`soft pro: S(x,y) ~> EQ(x,y).
		 soft con: Avoid(x,y) ~> NEQ(x,y).`,
		nil)
	if len(e.Spec().NegSoftRules()) != 1 {
		t.Fatal("NEQ rule not classified as NegSoft")
	}
	// NegSoft rules never make pairs active.
	act, err := e.ActivePairs(e.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if len(act) != 1 || act[0].Rules[0] != "pro" {
		t.Fatalf("active pairs = %v, want only the pro rule's pair", act)
	}
	e.Spec().Rules[1].Weight = 5
	merged := e.FromPairs(nil)
	merged.Union(lookup(t, d, "u"), lookup(t, d, "v"))
	score, err := e.ScoreSolution(merged)
	if err != nil {
		t.Fatal(err)
	}
	// +1 (pro) - 5 (con) = -4.
	if score != -4 {
		t.Errorf("score = %v, want -4", score)
	}
	// BestSolutions prefers the identity (score 0) over merging (-4).
	best, err := e.BestSolutions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The only maximal solution still merges (maximality ignores
	// weights), so BestSolutions returns it with its negative score.
	if len(best) != 1 || best[0].Score != -4 {
		t.Errorf("best = %+v", best)
	}
}

func TestBestSolutionsOnFigure1(t *testing.T) {
	e, f := fig1Engine(t)
	// Weight σ3 (paper merges) higher: M1 (with λ) gains an extra
	// sigma3 application relative to M2 (with χ via σ2).
	for _, r := range e.Spec().Rules {
		if r.Name == "sigma3" {
			r.Weight = 10
		}
	}
	best, err := e.BestSolutions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(best) != 1 {
		t.Fatalf("got %d best solutions, want 1", len(best))
	}
	if !best[0].E.Same(f.Const("p4"), f.Const("p5")) {
		t.Error("weighting sigma3 should select the λ-solution M1")
	}
	if best[0].E.Same(f.Const("a6"), f.Const("a7")) {
		t.Error("best solution unexpectedly contains χ")
	}
}

func TestNegSoftParsing(t *testing.T) {
	s := db.NewSchema()
	s.MustAdd("R", "a", "b")
	if _, err := rules.ParseSpec(`hard R(x,y) => NEQ(x,y).`, s, nil, nil); err == nil {
		t.Error("hard NEQ rule accepted")
	}
	spec, err := rules.ParseSpec(`soft R(x,y) ~> NEQ(x,y).`, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Rules[0].Kind != rules.NegSoft {
		t.Errorf("kind = %v, want NegSoft", spec.Rules[0].Kind)
	}
	if !strings.Contains(spec.Rules[0].String(), "NEQ(x,y)") {
		t.Errorf("String() = %q", spec.Rules[0].String())
	}
	if _, err := rules.ParseSpec(`soft R(x,y) ~> WHAT(x,y).`, s, nil, nil); err == nil {
		t.Error("unknown head accepted")
	}
}

func TestExplainCertain(t *testing.T) {
	e, f := fig1Engine(t)
	x, err := e.ExplainMergeCtx(context.Background(), f.Const("p2"), f.Const("p3"))
	if err != nil {
		t.Fatal(err)
	}
	if x.Status != Certain || x.Justification == nil {
		t.Fatalf("theta explanation = %+v, want certain with justification", x)
	}
	out := x.Format(f.DB.Interner())
	if !strings.Contains(out, "certain") || !strings.Contains(out, "sigma3") {
		t.Errorf("format:\n%s", out)
	}
}

func TestExplainPossibleOnly(t *testing.T) {
	e, f := fig1Engine(t)
	x, err := e.ExplainMergeCtx(context.Background(), f.Const("a6"), f.Const("a7"))
	if err != nil {
		t.Fatal(err)
	}
	if x.Status != PossibleOnly {
		t.Fatalf("chi status = %v, want possible", x.Status)
	}
	if x.Witness == nil || x.CounterExample == nil {
		t.Fatal("possible explanation missing witness or counterexample")
	}
	if !x.Witness.Same(f.Const("a6"), f.Const("a7")) {
		t.Error("witness does not contain the pair")
	}
	if x.CounterExample.Same(f.Const("a6"), f.Const("a7")) {
		t.Error("counterexample contains the pair")
	}
}

func TestExplainImpossibleBlocked(t *testing.T) {
	e, f := fig1Engine(t)
	x, err := e.ExplainMergeCtx(context.Background(), f.Const("c3"), f.Const("c4"))
	if err != nil {
		t.Fatal(err)
	}
	if x.Status != Impossible || x.NeverDerivable {
		t.Fatalf("eta explanation = %+v, want impossible-but-derivable", x)
	}
	if len(x.BlockedBy) == 0 {
		t.Error("eta explanation lists no blocking denials")
	}
	out := x.Format(f.DB.Interner())
	if !strings.Contains(out, "impossible") {
		t.Errorf("format:\n%s", out)
	}
}

func TestExplainNeverDerivable(t *testing.T) {
	e, f := fig1Engine(t)
	x, err := e.ExplainMergeCtx(context.Background(), f.Const("a1"), f.Const("a4"))
	if err != nil {
		t.Fatal(err)
	}
	if x.Status != Impossible || !x.NeverDerivable {
		t.Fatalf("(a1,a4) explanation = %+v, want never-derivable", x)
	}
	if _, err := e.ExplainMergeCtx(context.Background(), f.Const("a1"), f.Const("a1")); err == nil {
		t.Error("reflexive explanation accepted")
	}
}

// TestExplainDeterministic: explaining the same pair twice yields the
// same text — step order and "joining via" pairs included — for every
// duplicate pair of a generated instance. The instance is small enough
// for monolithic enumeration and has justifications with several join
// dependencies per step.
func TestExplainDeterministic(t *testing.T) {
	cfg := workload.DefaultConfig(2)
	cfg.Authors, cfg.Papers, cfg.Conferences = 6, 6, 2
	ds, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(ds.DB, ds.Spec, ds.Sims, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := ds.DB.Interner()
	ctx := context.Background()
	pairs := 0
	for _, cls := range ds.Truth.NontrivialClasses() {
		for i, a := range cls {
			for _, b := range cls[i+1:] {
				pairs++
				var want string
				for run := 0; run < 20; run++ {
					x, err := eng.Fork().ExplainMergeCtx(ctx, a, b)
					if err != nil {
						t.Fatal(err)
					}
					got := x.Format(in)
					if run == 0 {
						want = got
					} else if got != want {
						t.Fatalf("(%s,%s) run %d differs:\n%s\nfirst run:\n%s",
							in.Name(a), in.Name(b), run, got, want)
					}
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("generated instance has no duplicate pairs")
	}
}
