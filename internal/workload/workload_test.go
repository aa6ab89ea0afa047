package workload

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dedupalog"
	"repro/internal/eqrel"
)

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.DB.NumFacts() != b.DB.NumFacts() {
		t.Errorf("same seed, different fact counts: %d vs %d", a.DB.NumFacts(), b.DB.NumFacts())
	}
	if !a.DB.Equal(b.DB) {
		t.Error("same seed, different databases")
	}
	if !a.Truth.Equal(b.Truth) {
		t.Error("same seed, different truths")
	}
	c, err := Generate(DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if a.DB.Equal(c.DB) {
		t.Error("different seeds produced identical databases")
	}
}

func TestGenerateShape(t *testing.T) {
	ds, err := Generate(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1)
	if ds.AuthorRefs < cfg.Authors || ds.PaperRefs < cfg.Papers || ds.ConfRefs < cfg.Conferences {
		t.Errorf("reference counts below entity counts: %d/%d/%d",
			ds.AuthorRefs, ds.PaperRefs, ds.ConfRefs)
	}
	// Truth only merges same-type references.
	for _, cls := range ds.Truth.NontrivialClasses() {
		kind := byte(0)
		for _, c := range cls {
			name := ds.DB.Interner().Name(c)
			if kind == 0 {
				kind = name[0]
			} else if name[0] != kind {
				t.Errorf("ground-truth class mixes entity types: %v", cls)
			}
		}
	}
	if err := ds.Spec.Validate(ds.Schema, ds.Sims); err != nil {
		t.Errorf("generated spec invalid: %v", err)
	}
	if _, err := Generate(Config{Authors: 1, Papers: 1, Conferences: 1}); err == nil {
		t.Error("degenerate config accepted")
	}
}

// TestGreedyLACEQuality: on a clean-ish dataset, greedy LACE recovers
// duplicates with high precision and decent recall, and beats the
// static Dedupalog baseline on F1.
func TestGreedyLACEQuality(t *testing.T) {
	ds, err := Generate(DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(ds.DB, ds.Spec, ds.Sims, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sol, ok, err := e.GreedySolutionCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		viol, _ := e.ViolatedDenials(sol)
		t.Fatalf("greedy pass inconsistent: %v", viol)
	}
	isSol, err := e.IsSolution(sol)
	if err != nil {
		t.Fatal(err)
	}
	if !isSol {
		t.Fatal("greedy result is not a solution")
	}
	q := Score(sol, ds.Truth)
	if q.Precision < 0.95 {
		t.Errorf("LACE precision %.3f too low: %v", q.Precision, q)
	}
	if q.Recall < 0.5 {
		t.Errorf("LACE recall %.3f too low: %v", q.Recall, q)
	}

	base, err := dedupalog.Cluster(ds.DB, dedupalog.FromLACE(ds.Spec), ds.Sims, 7)
	if err != nil {
		t.Fatal(err)
	}
	bq := Score(base, ds.Truth)
	t.Logf("LACE greedy: %v", q)
	t.Logf("Dedupalog : %v", bq)
	if q.F1 < bq.F1 {
		t.Errorf("LACE F1 %.3f below baseline %.3f", q.F1, bq.F1)
	}
}

func TestScore(t *testing.T) {
	truth := eqrel.NewFromPairs(6, []eqrel.Pair{{A: 0, B: 1}, {A: 2, B: 3}})
	perfect := Score(truth.Clone(), truth)
	if perfect.Precision != 1 || perfect.Recall != 1 || perfect.F1 != 1 {
		t.Errorf("perfect prediction scored %v", perfect)
	}
	empty := Score(eqrel.New(6), truth)
	if empty.Precision != 1 || empty.Recall != 0 {
		t.Errorf("empty prediction scored %v", empty)
	}
	wrong := Score(eqrel.NewFromPairs(6, []eqrel.Pair{{A: 0, B: 5}}), truth)
	if wrong.Precision != 0 || wrong.TP != 0 || wrong.FP != 1 || wrong.FN != 2 {
		t.Errorf("wrong prediction scored %v", wrong)
	}
	half := Score(eqrel.NewFromPairs(6, []eqrel.Pair{{A: 0, B: 1}}), truth)
	if half.TP != 1 || half.FN != 1 || half.Recall != 0.5 {
		t.Errorf("half prediction scored %v", half)
	}
}

// TestDirtyWroteRepair: δ1 violations injected by the generator are
// repairable: the greedy pass ends consistent.
func TestDirtyWroteRepair(t *testing.T) {
	cfg := DefaultConfig(11)
	cfg.DirtyWrote = 1.0
	cfg.DupRate = 0.8
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(ds.DB, ds.Spec, ds.Sims, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	consistent, err := e.SatisfiesDenials(e.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if consistent {
		t.Skip("no dirty rows generated at this seed")
	}
	sol, ok, err := e.GreedySolutionCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		viol, _ := e.ViolatedDenials(sol)
		t.Fatalf("greedy could not repair the injected δ1 violations: %v", viol)
	}
}
