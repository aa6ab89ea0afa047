package core

import (
	"context"
	"testing"

	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/rules"
)

// obsSetup builds a four-constant engine with a live registry.
func obsSetup(t *testing.T) (*Engine, *db.Database, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	s := db.NewSchema()
	s.MustAdd("R", "a", "b")
	d := db.New(s, nil)
	d.MustInsert("R", "x", "y")
	d.MustInsert("R", "z", "w")
	spec, err := rules.ParseSpec(`soft R(x,y) ~> EQ(x,y).`, s, d.Interner(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(d, spec, nil, Options{Recorder: reg})
	if err != nil {
		t.Fatal(err)
	}
	return e, d, reg
}

// TestInducedCacheCounters drives the induced-database cache through
// hits, misses, and LRU evictions, and checks that each is visible in
// the recorded counters. Evictions drop exactly one entry (the least
// recently used), so the cache keeps its working set instead of
// flushing wholesale.
func TestInducedCacheCounters(t *testing.T) {
	e, d, reg := obsSetup(t)
	e.cache = lru.New[*db.Database](2)
	pair := func(a, b string) *eqrel.Partition {
		return e.FromPairs([]eqrel.Pair{eqrel.MakePair(lookup(t, d, a), lookup(t, d, b))})
	}
	p1, p2, p3 := pair("x", "y"), pair("z", "w"), pair("x", "z")

	e.Induced(p1) // miss, cache {p1}
	e.Induced(p1) // hit, p1 most recent
	e.Induced(p2) // miss, cache {p1, p2}
	e.Induced(p3) // full: evicts LRU p1 only, miss, cache {p2, p3}
	e.Induced(p1) // miss again, evicts p2, cache {p3, p1}
	e.Induced(p3) // hit: p3 survived both evictions (true LRU, no flush)

	snap := e.Stats()
	if got := snap.Counter(obs.CoreCacheHits); got != 2 {
		t.Errorf("cache hits = %d, want 2", got)
	}
	if got := snap.Counter(obs.CoreCacheMisses); got != 4 {
		t.Errorf("cache misses = %d, want 4", got)
	}
	if got := snap.Counter(obs.CoreCacheEvictions); got != 2 {
		t.Errorf("cache evictions = %d, want 2", got)
	}
	if got := e.cache.Len(); got != 2 {
		t.Errorf("cache size = %d, want 2", got)
	}
	// The identity partition bypasses the cache entirely.
	e.Induced(e.Identity())
	after := reg.Snapshot()
	if after.Counter(obs.CoreCacheHits) != 2 || after.Counter(obs.CoreCacheMisses) != 4 {
		t.Error("identity partition should not touch the cache")
	}
}

// TestPlanAndFixpointCounters checks the prepared-plan cache and the
// semi-naive fixpoint instrumentation: repeated evaluation of the same
// rules reuses cached plans, and a closure needing several rounds
// reports delta rounds and incremental induced-database derivations.
func TestPlanAndFixpointCounters(t *testing.T) {
	reg := obs.NewRegistry()
	s := db.NewSchema()
	s.MustAdd("R", "a", "b")
	d := db.New(s, nil)
	// A chain that hard-closes in several dependent rounds:
	// R(x,y), R(y,z) ~> EQ(x,z) repeatedly collapses the chain.
	d.MustInsert("R", "c0", "c1")
	d.MustInsert("R", "c1", "c2")
	d.MustInsert("R", "c2", "c3")
	d.MustInsert("R", "c3", "c4")
	spec, err := rules.ParseSpec(`hard R(x,y), R(y,z) => EQ(x,z).`, s, d.Interner(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(d, spec, nil, Options{Recorder: reg})
	if err != nil {
		t.Fatal(err)
	}
	E := e.Identity()
	if err := e.HardClose(E); err != nil {
		t.Fatal(err)
	}
	snap := e.Stats()
	if got := snap.Counter(obs.CorePlanCacheMisses); got != 1 {
		t.Errorf("plan cache misses = %d, want 1 (one rule)", got)
	}
	if snap.Counter(obs.CoreFixpointDeltaRounds) == 0 {
		t.Error("expected semi-naive delta rounds in a chained hard closure")
	}
	if snap.Counter(obs.DBInducedIncremental) == 0 {
		t.Error("expected incremental induced-database derivations")
	}
	// A second closure from scratch reuses the cached plan.
	if err := e.HardClose(e.Identity()); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if got := after.Counter(obs.CorePlanCacheMisses); got != 1 {
		t.Errorf("plan cache misses after reuse = %d, want 1", got)
	}
	if after.Counter(obs.CorePlanCacheHits) == 0 {
		t.Error("expected plan cache hits on the second closure")
	}
}

// TestSearchStats checks that a full enumeration records search states,
// solutions, and the core.search phase duration.
func TestSearchStats(t *testing.T) {
	e, _, _ := obsSetup(t)
	n := 0
	if err := e.SolutionsCtx(context.Background(), func(*eqrel.Partition) bool { n++; return false }); err != nil {
		t.Fatal(err)
	}
	snap := e.Stats()
	if got := snap.Counter(obs.CoreSearchSolutions); got != int64(n) {
		t.Errorf("solutions counter = %d, want %d", got, n)
	}
	if snap.Counter(obs.CoreSearchStates) < int64(n) {
		t.Errorf("states counter = %d, want >= %d", snap.Counter(obs.CoreSearchStates), n)
	}
	if ds := snap.Duration(obs.SpanCoreSearch); ds.Count != 1 {
		t.Errorf("core.search phase count = %d, want 1", ds.Count)
	}
	if snap.Counter(obs.CQEvalCalls) == 0 {
		t.Error("expected cq.eval.calls to advance during search")
	}
}
