package asp

import (
	"fmt"
	"testing"

	"repro/internal/obs"
)

// TestSolverCountersFlush checks that the DPLL solver's hot-loop
// counters reach the recorder as deltas after Solve, and that the
// deprecated accessors track them.
func TestSolverCountersFlush(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSolver(2)
	s.SetRecorder(reg)
	s.AddClause(MkLit(0, true), MkLit(1, true))
	s.AddClause(MkLit(0, false), MkLit(1, false))
	if _, ok, _ := s.Solve(); !ok {
		t.Fatal("satisfiable formula reported unsat")
	}
	snap := reg.Snapshot()
	if got := snap.Counter(obs.ASPDecisions); got != s.Decisions() {
		t.Errorf("recorded decisions = %d, accessor = %d", got, s.Decisions())
	}
	if got := snap.Counter(obs.ASPPropagations); got != s.Propagations() {
		t.Errorf("recorded propagations = %d, accessor = %d", got, s.Propagations())
	}
	if s.Decisions() == 0 {
		t.Error("expected at least one decision")
	}
	// A second Solve must flush only the delta, not the running total.
	s.AddClause(MkLit(0, true))
	if _, ok, _ := s.Solve(); !ok {
		t.Fatal("still-satisfiable formula reported unsat")
	}
	if got := reg.Snapshot().Counter(obs.ASPDecisions); got != s.Decisions() {
		t.Errorf("after second solve: recorded decisions = %d, accessor = %d", got, s.Decisions())
	}
}

// TestStableSolverGauges checks that building a stable solver with a
// recorder publishes completion sizes and that loop formulas and models
// are counted.
func TestStableSolverGauges(t *testing.T) {
	reg := obs.NewRegistry()
	// A positive loop a0 → a1 → a2 → a0 whose only external support is a
	// toggled seed (the BenchmarkLoopFormulas program, scaled down): the
	// completion admits unfounded loop models, so the assat iteration has
	// to add loop formulas.
	p := &Program{}
	const n = 3
	for i := 0; i < n; i++ {
		p.Add(NewRule(A(fmt.Sprintf("a%d", i)), Pos(A(fmt.Sprintf("a%d", (i+1)%n)))))
	}
	p.Add(NewRule(A("a0"), Pos(A("seed")), Not(A("noseed"))))
	p.Add(NewRule(A("noseed"), Not(A("yesseed"))))
	p.Add(NewRule(A("yesseed"), Not(A("noseed"))))
	p.AddFact(A("seed"))
	gp, err := Ground(p, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	ss := NewStableSolver(gp, nil, reg)
	models := 0
	ss.Enumerate(func([]bool) bool { models++; return true })
	if models != 2 {
		t.Fatalf("got %d stable models, want 2", models)
	}
	snap := reg.Snapshot()
	if snap.GaugeValue(obs.ASPCompletionClauses) == 0 || snap.GaugeValue(obs.ASPCompletionVars) == 0 {
		t.Error("completion gauges not published")
	}
	if snap.GaugeValue(obs.ASPGroundRules) == 0 || snap.GaugeValue(obs.ASPGroundAtoms) == 0 {
		t.Error("grounding gauges not published")
	}
	if got := snap.Counter(obs.ASPModels); got != 2 {
		t.Errorf("models counter = %d, want 2", got)
	}
	if learned := snap.Histogram(obs.HistASPLearnedPerSolve).Sum; learned != snap.Counter(obs.ASPLoopFormulas) {
		t.Errorf("per-solve loop formulas sum to %d but counter = %d",
			learned, snap.Counter(obs.ASPLoopFormulas))
	}
	if snap.Counter(obs.ASPDecisions) == 0 {
		t.Error("expected DPLL decisions during enumeration")
	}
	if ds := snap.Duration(obs.SpanASPGround); ds.Count != 1 {
		t.Errorf("asp.ground phase count = %d, want 1", ds.Count)
	}
}
