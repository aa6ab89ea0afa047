package core

import (
	"context"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/obs"
	"repro/internal/workload"
)

// fullScaleMatches is the cq.eval.matches count of one resolve of
// scale seed 1 (5 000 entities, MaxDup 1) whose closure enumerates
// every match in both orientations, reflexive ones included.
const fullScaleMatches = 18926

// TestShardMirrorPruning keeps the closure's mirror pruning from
// switching off silently: every merge rule of the shipped and Figure 1
// specifications must prepare a plan with mirror slots, and one
// resolve of a 5 000-entity scale instance must enumerate fewer than
// half the matches it did when every match came in both orientations.
func TestShardMirrorPruning(t *testing.T) {
	f := fixtures.New()
	ds, err := workload.Generate(workload.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []struct {
		name string
		eng  func() (*Engine, error)
	}{
		{"Figure 1", func() (*Engine, error) { return New(f.DB, f.Spec, f.Sims, Options{}) }},
		{"workload.SpecText", func() (*Engine, error) { return New(ds.DB, ds.Spec, ds.Sims, Options{}) }},
	} {
		eng, err := sp.eng()
		if err != nil {
			t.Fatal(err)
		}
		if len(eng.sess.mergeRules) == 0 {
			t.Fatalf("%s: no merge rules", sp.name)
		}
		for _, r := range eng.sess.mergeRules {
			if !eng.plan(r).Symmetric() {
				t.Errorf("%s: rule %s records no mirror slots", sp.name, r.Name)
			}
		}
	}

	cfg := workload.DefaultScaleConfig(1, 5000)
	cfg.MaxDup = 1
	scale, err := workload.GenerateScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	snap, err := NewSnapshot(scale.DB, scale.Spec, scale.Sims, Options{Recorder: reg}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := snap.PossibleMergesCtx(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.CertainMergesCtx(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.MaximalSolutionsCtx(ctx); err != nil {
		t.Fatal(err)
	}
	got := reg.Snapshot().Counter(obs.CQEvalMatches)
	t.Logf("cq.eval.matches = %d (%d with both orientations)", got, fullScaleMatches)
	if 2*got >= fullScaleMatches {
		t.Errorf("one resolve enumerated %d matches, not below half of %d", got, fullScaleMatches)
	}
}
