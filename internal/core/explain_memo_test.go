package core

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/eqrel"
	"repro/internal/sim"
	"repro/internal/workload"
)

// readColdSnapshot resolves the read-sized seed-22 workload instance
// (6 authors, 9 papers, 3 conferences; a 192-state lattice, the shape
// of the benchmark's read-cold instances) through a snapshot whose
// approx predicate scores pairs with metric, and returns the snapshot
// with the instance's duplicate pairs.
func readColdSnapshot(tb testing.TB, metric sim.Metric) (*EpochSnapshot, []eqrel.Pair) {
	tb.Helper()
	cfg := workload.DefaultConfig(22)
	cfg.Authors, cfg.Papers, cfg.Conferences = 6, 9, 3
	ds, err := workload.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sims := sim.NewRegistry(sim.Threshold("approx", metric, 0.82))
	snap, err := NewSnapshot(ds.DB, ds.Spec, sims, Options{Parallelism: 1}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := snap.PossibleMergesCtx(context.Background()); err != nil {
		tb.Fatal(err)
	}
	var pairs []eqrel.Pair
	for _, cls := range ds.Truth.NontrivialClasses() {
		for i, a := range cls {
			for _, b := range cls[i+1:] {
				pairs = append(pairs, eqrel.MakePair(a, b))
			}
		}
	}
	if len(pairs) == 0 {
		tb.Fatal("generated instance has no duplicate pairs")
	}
	return snap, pairs
}

// TestExplanationReusesSimilarityVerdicts pins what the similarity memo
// pays for on the explanation path: the relaxed join behind an
// explanation asks for the verdicts of pairs the resolve (or an earlier
// explanation) already scored, so explaining a pair again scores
// nothing. Without the memo every explanation re-scores every pair its
// join tries.
func TestExplanationReusesSimilarityVerdicts(t *testing.T) {
	var calls atomic.Int64
	counting := func(a, b string) float64 {
		calls.Add(1)
		return sim.NormalizedLevenshtein(a, b)
	}
	snap, pairs := readColdSnapshot(t, counting)
	ctx := context.Background()
	explain := func() int64 {
		t.Helper()
		before := calls.Load()
		if _, err := snap.ExplainMergesCtx(ctx, pairs[:1]); err != nil {
			t.Fatal(err)
		}
		return calls.Load() - before
	}
	resolved := calls.Load()
	first := explain()
	t.Logf("the resolve scored %d pairs, the first explanation %d more", resolved, first)
	if n := explain(); n != 0 {
		t.Errorf("explaining the same pair again made %d metric calls, want 0", n)
	}
}

// BenchmarkExplainMerge times one snapshot explanation per iteration on
// the read-sized seed-22 instance, cycling through its duplicate pairs:
// the per-request work of the read-cold explain form.
func BenchmarkExplainMerge(b *testing.B) {
	snap, pairs := readColdSnapshot(b, sim.NormalizedLevenshtein)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.ExplainMergesCtx(ctx, pairs[i%len(pairs):i%len(pairs)+1]); err != nil {
			b.Fatal(err)
		}
	}
}
