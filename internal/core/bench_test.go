package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/fixtures"
	"repro/internal/lru"
	"repro/internal/workload"
)

// benchEngine builds a Figure 1 engine and a mid-sized solution state.
func benchEngine(b *testing.B) (*Engine, *eqrel.Partition) {
	b.Helper()
	f := fixtures.New()
	e, err := New(f.DB, f.Spec, f.Sims, Options{})
	if err != nil {
		b.Fatal(err)
	}
	E := e.FromPairs([]eqrel.Pair{
		eqrel.MakePair(f.Const("a1"), f.Const("a2")),
		eqrel.MakePair(f.Const("a2"), f.Const("a3")),
		eqrel.MakePair(f.Const("c2"), f.Const("c3")),
	})
	return e, E
}

// BenchmarkInducedCached is the ablation for the induced-database cache
// (DESIGN.md key decision): repeated evaluation against one partition
// hits the cache.
func BenchmarkInducedCached(b *testing.B) {
	e, E := benchEngine(b)
	e.SatisfiesDenials(E) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SatisfiesDenials(E)
	}
}

// BenchmarkInducedUncached clears the cache each iteration: the cost of
// materialising D_E plus evaluation, i.e. what every denial check would
// pay without the cache.
func BenchmarkInducedUncached(b *testing.B) {
	e, E := benchEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.cache = lru.New[*db.Database](e.cache.Cap())
		e.SatisfiesDenials(E)
	}
}

// BenchmarkActivePairs measures one round of rule evaluation over an
// induced state — the searcher's hot path.
func BenchmarkActivePairs(b *testing.B) {
	e, E := benchEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		act, err := e.ActivePairs(E)
		if err != nil || len(act) == 0 {
			b.Fatalf("active = %d, err %v", len(act), err)
		}
	}
}

// BenchmarkHardClose measures the hard-rule fixpoint from {α, β}
// (which must derive ζ).
func BenchmarkHardClose(b *testing.B) {
	f := fixtures.New()
	e, err := New(f.DB, f.Spec, f.Sims, Options{})
	if err != nil {
		b.Fatal(err)
	}
	base := []eqrel.Pair{
		eqrel.MakePair(f.Const("a1"), f.Const("a2")),
		eqrel.MakePair(f.Const("a2"), f.Const("a3")),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		E := e.FromPairs(base)
		if err := e.HardClose(E); err != nil {
			b.Fatal(err)
		}
		if !E.Same(f.Const("c2"), f.Const("c3")) {
			b.Fatal("hard closure incomplete")
		}
	}
}

// BenchmarkInducedIncremental compares deriving a child state's induced
// database incrementally from its parent (db.MapFrom with a two-constant
// dirty set — the search's per-child cost) against recomputing the full
// db.Map, on a synthetic instance large enough that the difference is
// the dominant term.
func BenchmarkInducedIncremental(b *testing.B) {
	const n = 2000
	s := db.NewSchema()
	s.MustAdd("R", "a", "b")
	d := db.New(s, nil)
	for i := 0; i < n; i++ {
		d.MustInsert("R", fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", (i*7+1)%n))
	}
	E := eqrel.New(d.Interner().Size())
	E.Union(0, 1)
	parent := d.Map(E.Rep)
	E2 := E.Clone()
	E2.Union(2, 3)
	dirty := []db.Const{2, 3}

	b.Run("full-map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if d.Map(E2.Rep) == nil {
				b.Fatal("nil map")
			}
		}
	})
	b.Run("map-from", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if db.MapFrom(parent, dirty, E2.Rep) == nil {
				b.Fatal("nil incremental map")
			}
		}
	})
}

// BenchmarkGreedyFigure1 measures the scalable solving mode end to end.
func BenchmarkGreedyFigure1(b *testing.B) {
	f := fixtures.New()
	e, err := New(f.DB, f.Spec, f.Sims, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, err := e.GreedySolutionCtx(context.Background())
		if err != nil || !ok {
			b.Fatalf("greedy: %v %v", ok, err)
		}
	}
}

// BenchmarkReplayReadCold replays the maximal solution of the read-sized
// seed-22 workload instance (6 authors, 9 papers, 3 conferences): the
// relaxed join behind every explanation.
func BenchmarkReplayReadCold(b *testing.B) {
	cfg := workload.DefaultConfig(22)
	cfg.Authors, cfg.Papers, cfg.Conferences = 6, 9, 3
	ds, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(ds.DB, ds.Spec, ds.Sims, Options{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	maximal, err := e.MaximalSolutionsCtx(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.replay(maximal[0]); err != nil {
			b.Fatal(err)
		}
	}
}
