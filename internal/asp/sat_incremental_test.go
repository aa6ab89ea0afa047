package asp

import (
	"context"
	"errors"
	"testing"

	"repro/internal/asp/dpllref"
	"repro/internal/limits"
)

// Audit of incremental clause addition between Solve calls — the mode
// the stable-model pipeline leans on (loop formulas, blocking clauses,
// activation units are all added to a solver that has already produced
// models).

// TestIncrementalEmptyClauseAfterModel: adding the empty clause after a
// successful solve makes the solver permanently UNSAT.
func TestIncrementalEmptyClauseAfterModel(t *testing.T) {
	s := NewSolver(2)
	s.AddClause(MkLit(0, true), MkLit(1, true))
	if _, ok, _ := s.Solve(); !ok {
		t.Fatal("satisfiable formula reported UNSAT")
	}
	s.AddClause() // empty clause
	if _, ok, _ := s.Solve(); ok {
		t.Fatal("solver found a model after the empty clause")
	}
	if _, ok, _ := s.Solve(MkLit(0, true)); ok {
		t.Fatal("assumptions revived a solver holding the empty clause")
	}
	if _, _, err := s.Solve(); err != nil {
		t.Fatalf("empty clause is UNSAT, not an error: %v", err)
	}
}

// TestIncrementalUnitAfterModel: a unit clause added after a model
// flips the forced variable in the next model, and the old model is no
// longer produced.
func TestIncrementalUnitAfterModel(t *testing.T) {
	s := NewSolver(2)
	s.AddClause(MkLit(0, true), MkLit(1, true))
	m, ok, _ := s.Solve()
	if !ok {
		t.Fatal("UNSAT")
	}
	if !m[0] {
		t.Fatal("phase preference should pick v0 true first")
	}
	s.AddClause(MkLit(0, false)) // force v0 false
	m, ok, _ = s.Solve()
	if !ok {
		t.Fatal("UNSAT after unit")
	}
	if m[0] || !m[1] {
		t.Fatalf("model %v, want v0 false and v1 true", m)
	}
}

// TestIncrementalDuplicateAndTautology: duplicate literals collapse,
// tautological clauses are dropped entirely (they never constrain and
// must not join the watch lists).
func TestIncrementalDuplicateAndTautology(t *testing.T) {
	s := NewSolver(2)
	before := s.NumClauses()
	s.AddClause(MkLit(0, true), MkLit(0, false)) // tautology
	if s.NumClauses() != before {
		t.Fatal("tautology was stored")
	}
	s.AddClause(MkLit(0, true), MkLit(0, true), MkLit(0, true)) // collapses to a unit
	if s.NumClauses() != before+1 {
		t.Fatal("duplicate literals not collapsed into one clause")
	}
	m, ok, _ := s.Solve()
	if !ok || !m[0] {
		t.Fatalf("model %v ok=%v, want v0 forced true", m, ok)
	}
	// The collapsed unit must behave as one under later conflict.
	s.AddClause(MkLit(0, false))
	if _, ok, _ := s.Solve(); ok {
		t.Fatal("contradictory units still satisfiable")
	}
}

// TestIncrementalAssumptionsDoNotStick: failing assumptions must not
// poison later solves without them, and clauses added between
// assumption solves persist.
func TestIncrementalAssumptionsDoNotStick(t *testing.T) {
	s := NewSolver(3)
	s.AddClause(MkLit(0, true), MkLit(1, true))
	if _, ok, _ := s.Solve(MkLit(0, false), MkLit(1, false)); ok {
		t.Fatal("contradictory assumptions satisfied")
	}
	m, ok, _ := s.Solve()
	if !ok {
		t.Fatal("solver poisoned by failed assumptions")
	}
	if !m[0] && !m[1] {
		t.Fatalf("model %v violates the only clause", m)
	}
	s.AddClause(MkLit(2, true))
	m, ok, _ = s.Solve(MkLit(0, false))
	if !ok || m[0] || !m[1] || !m[2] {
		t.Fatalf("model %v ok=%v, want v0 false v1 true v2 true", m, ok)
	}
}

// TestIncrementalNewVarAfterSolve: variables created after a solve
// (the activation-literal pattern of MaximalProjections) extend the
// model slice and solve correctly.
func TestIncrementalNewVarAfterSolve(t *testing.T) {
	s := NewSolver(1)
	s.AddClause(MkLit(0, true))
	if _, ok, _ := s.Solve(); !ok {
		t.Fatal("UNSAT")
	}
	v := s.NewVar()
	s.AddClause(MkLit(v, false), MkLit(0, true)) // act -> v0
	m, ok, _ := s.Solve(MkLit(v, true))
	if !ok || len(m) != 2 || !m[v] {
		t.Fatalf("model %v ok=%v, want length 2 with activation true", m, ok)
	}
	s.AddClause(MkLit(v, false)) // retire the activation
	m, ok, _ = s.Solve()
	if !ok || m[v] {
		t.Fatalf("model %v ok=%v, want activation retired to false", m, ok)
	}
}

// TestSolveErrDecisionBudget: the decision budget stops Solve with a
// typed error, the error latches, and the solver becomes usable again
// once the budget is detached.
func TestSolveErrDecisionBudget(t *testing.T) {
	const n = 24
	s := NewSolver(n)
	for v := 0; v < n; v++ {
		s.AddClause(MkLit(v, true), MkLit((v+1)%n, true))
	}
	b := limits.NewBudget(nil, limits.Limits{MaxDecisions: 2})
	s.SetBudget(b)
	_, ok, err := s.Solve()
	if ok || !errors.Is(err, limits.ErrBudget) {
		t.Fatalf("ok=%v err=%v, want decision budget error", ok, err)
	}
	var be *limits.BudgetError
	if !errors.As(err, &be) || be.Resource != "decisions" {
		t.Fatalf("typed error wrong: %#v", err)
	}
	if _, _, err2 := s.Solve(); !errors.Is(err2, limits.ErrBudget) {
		t.Fatalf("latched error lost: %v", err2)
	}
	s.SetBudget(nil)
	if _, ok, err := s.Solve(); !ok || err != nil {
		t.Fatalf("solver unusable after budget detached: ok=%v err=%v", ok, err)
	}
}

// TestSolveErrClauseBudgetSurfacesLater: AddClause has no error path;
// a clause-budget overrun latches silently and surfaces at the next
// Solve.
func TestSolveErrClauseBudgetSurfacesLater(t *testing.T) {
	s := NewSolver(4)
	b := limits.NewBudget(nil, limits.Limits{MaxClauses: 2})
	s.SetBudget(b)
	s.AddClause(MkLit(0, true))
	s.AddClause(MkLit(1, true))
	s.AddClause(MkLit(2, true)) // over budget, latches
	_, ok, err := s.Solve()
	if ok || !errors.Is(err, limits.ErrBudget) {
		t.Fatalf("ok=%v err=%v, want clause budget error", ok, err)
	}
}

// TestSolveErrCancellation: a cancelled context surfaces as ErrCanceled
// (not ErrBudget) and unwraps to context.Canceled.
func TestSolveErrCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := NewSolver(4)
	s.AddClause(MkLit(0, true), MkLit(1, true))
	s.SetBudget(limits.NewBudget(ctx, limits.Limits{}))
	cancel()
	_, ok, err := s.Solve()
	if ok || !errors.Is(err, limits.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("ok=%v err=%v, want cancellation error", ok, err)
	}
	if errors.Is(err, limits.ErrBudget) {
		t.Fatal("cancellation matched ErrBudget")
	}
}

// TestStableSolverBudgetedEnumerate: a stable solver under a tight
// decision budget reports the typed error from Enumerate while the
// unbudgeted variant on the same program enumerates fully.
func TestStableSolverBudgetedEnumerate(t *testing.T) {
	src := `node(a). node(b). node(c). node(d).
in(X) :- node(X), not out(X).
out(X) :- node(X), not in(X).`
	gp, err := Ground(MustParse(src), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	full := 0
	NewStableSolver(gp, nil, nil).Enumerate(func([]bool) bool { full++; return true })
	if full != 16 {
		t.Fatalf("full enumeration = %d models, want 16", full)
	}
	ss := NewStableSolver(gp, limits.NewBudget(nil, limits.Limits{MaxDecisions: 10}), nil)
	partial := 0
	err = ss.Enumerate(func([]bool) bool { partial++; return true })
	if !errors.Is(err, limits.ErrBudget) {
		t.Fatalf("want budget error, got %v after %d models", err, partial)
	}
	if partial >= full {
		t.Fatalf("budgeted enumeration saw %d models, full saw %d", partial, full)
	}
}

// CDCL-specific incremental audit: the tests below pin the interactions
// the DPLL-era suite could not express — learned clauses across
// AddClause, assumptions over a learned database, restart placement,
// and the conflict-path budget poll.

// TestLearnedClausesSurviveAddClause: clauses learned during one solve
// are entailed, so AddClause after a model must keep them (clearing the
// learned database would silently discard the work the enumeration loop
// paid for) and later verdicts must stay exact against the DPLL
// reference.
func TestLearnedClausesSurviveAddClause(t *testing.T) {
	s := NewSolver(9)
	ref := dpllref.NewSolver(9)
	for _, c := range pigeonholeClauses(3, 3) {
		s.AddClause(c...)
		ref.AddClause(toRefLits(c)...)
	}
	m, ok, _ := s.Solve()
	if !ok {
		t.Fatal("PHP(3,3) is satisfiable")
	}
	if s.Learned() == 0 {
		t.Fatal("PHP(3,3) solved without learning — test is not exercising CDCL")
	}
	kept := s.NumLearnts()
	block := make([]Lit, 9)
	for v := range block {
		block[v] = MkLit(v, !m[v])
	}
	s.AddClause(block...)
	ref.AddClause(toRefLits(block)...)
	if s.NumLearnts() != kept {
		t.Fatalf("AddClause changed the learned database: %d -> %d", kept, s.NumLearnts())
	}
	m2, ok2, _ := s.Solve()
	w2, wok2 := ref.Solve()
	if ok2 != wok2 {
		t.Fatalf("after blocking clause: CDCL sat=%v, DPLL sat=%v", ok2, wok2)
	}
	if !ok2 || !modelsEqual(m2, w2) {
		t.Fatalf("post-AddClause model diverged\nCDCL: %v\nDPLL: %v", m2, w2)
	}
}

// TestAssumptionsOverLearnedClauses: a solve under assumptions on a
// solver whose database already holds learned clauses must agree with
// the reference both ways — satisfiable assumptions yield the same
// canonical model, refuting assumptions yield UNSAT without poisoning
// the solver.
func TestAssumptionsOverLearnedClauses(t *testing.T) {
	s := NewSolver(9)
	ref := dpllref.NewSolver(9)
	for _, c := range pigeonholeClauses(3, 3) {
		s.AddClause(c...)
		ref.AddClause(toRefLits(c)...)
	}
	if _, ok, _ := s.Solve(); !ok {
		t.Fatal("PHP(3,3) is satisfiable")
	}
	if s.Learned() == 0 {
		t.Fatal("no clauses learned before the assumption solves")
	}
	// Pigeon 0 in hole 2: satisfiable, same model both engines.
	m, ok, _ := s.Solve(MkLit(2, true))
	w, wok := ref.Solve(dpllref.MkLit(2, true))
	if !ok || !wok {
		t.Fatalf("assumption v2: CDCL sat=%v, DPLL sat=%v", ok, wok)
	}
	if !m[2] || !modelsEqual(m, w) {
		t.Fatalf("assumption models diverged\nCDCL: %v\nDPLL: %v", m, w)
	}
	// Pigeons 0 and 1 both in hole 0: refuted, and only under the
	// assumptions — the formula itself stays satisfiable.
	if _, ok, _ := s.Solve(MkLit(0, true), MkLit(3, true)); ok {
		t.Fatal("two pigeons in one hole satisfied")
	}
	if _, ok := ref.Solve(dpllref.MkLit(0, true), dpllref.MkLit(3, true)); ok {
		t.Fatal("reference disagrees: two pigeons in one hole satisfied")
	}
	if _, ok, _ := s.Solve(); !ok {
		t.Fatal("failed assumptions poisoned the solver")
	}
}

// TestRestartDuringEnumerationDeterminism: forcing the probe pass onto
// every solve (stallCap=1) with a restart after every probe conflict
// (restartBase=1) must not change the blocking-clause enumeration
// sequence — the canonical pass, not the probe, owns the model order.
func TestRestartDuringEnumerationDeterminism(t *testing.T) {
	// PHP(4,4) has exactly the 24 perfect matchings as models and is
	// large enough that the probe pass genuinely conflicts (and with
	// restartBase=1, restarts) during enumeration.
	enumerate := func(eager bool) ([][]bool, int64) {
		s := NewSolver(16)
		for _, c := range pigeonholeClauses(4, 4) {
			s.AddClause(c...)
		}
		if eager {
			s.stallCap = 1
			s.restartBase = 1
		}
		var seq [][]bool
		for len(seq) < 40 {
			m, ok, _ := s.Solve()
			if !ok {
				break
			}
			seq = append(seq, m)
			block := make([]Lit, 16)
			for v := range block {
				block[v] = MkLit(v, !m[v])
			}
			s.AddClause(block...)
		}
		return seq, s.Restarts()
	}
	eager, eagerRestarts := enumerate(true)
	def, _ := enumerate(false)
	if eagerRestarts == 0 {
		t.Fatal("restartBase=1 never restarted — test is not exercising restarts")
	}
	if len(eager) != len(def) {
		t.Fatalf("enumeration lengths differ: %d vs %d", len(eager), len(def))
	}
	for i := range eager {
		if !modelsEqual(eager[i], def[i]) {
			t.Fatalf("model %d differs under eager restarts\n eager: %v\ndefault: %v",
				i, eager[i], def[i])
		}
	}
}

// TestBudgetPollsOnConflicts: the conflict-path budget poll. The
// context expires after Solve's entry check, and the instance stays
// under pollEvery decisions, so the every-256 decision poll never fires
// — only the per-conflict poll can see the expiry. The DPLL-era solver
// would have run to UNSAT oblivious.
func TestBudgetPollsOnConflicts(t *testing.T) {
	s := NewSolver(12)
	for _, c := range pigeonholeClauses(4, 3) {
		s.AddClause(c...)
	}
	ctx := &errAfterCtx{Context: context.Background(), allow: 1}
	b := limits.NewBudget(ctx, limits.Limits{})
	s.SetBudget(b)
	_, ok, err := s.Solve()
	if ok || !errors.Is(err, limits.ErrCanceled) {
		t.Fatalf("ok=%v err=%v, want prompt cancellation", ok, err)
	}
	if b.Conflicts() == 0 {
		t.Fatal("no conflicts recorded — the conflict poll was never reached")
	}
	if b.Conflicts() > 1 {
		t.Fatalf("cancellation latched after %d conflicts, want exactly the first", b.Conflicts())
	}
	if b.Decisions() >= 256 {
		t.Fatalf("%d decisions — the decision-poll path could explain the stop", b.Decisions())
	}
	// The solver stays reusable once the budget is detached.
	s.SetBudget(nil)
	if _, ok, _ := s.Solve(); ok {
		t.Fatal("PHP(4,3) became satisfiable after cancellation")
	}
}

// TestDecisionBudgetInterruptsConflictHeavyInstance: a tight
// MaxDecisions budget stops a conflict-heavy UNSAT instance promptly
// with the typed decisions BudgetError (the drift fixed alongside the
// CDCL upgrade: conflicts no longer extend the run past the budget).
func TestDecisionBudgetInterruptsConflictHeavyInstance(t *testing.T) {
	s := NewSolver(15)
	for _, c := range pigeonholeClauses(5, 3) {
		s.AddClause(c...)
	}
	b := limits.NewBudget(nil, limits.Limits{MaxDecisions: 3})
	s.SetBudget(b)
	_, ok, err := s.Solve()
	if ok || !errors.Is(err, limits.ErrBudget) {
		t.Fatalf("ok=%v err=%v, want decision budget error", ok, err)
	}
	var be *limits.BudgetError
	if !errors.As(err, &be) || be.Resource != "decisions" {
		t.Fatalf("typed error wrong: %#v", err)
	}
	if b.Decisions() != 4 {
		t.Fatalf("stopped after %d decisions, want limit+1 = 4", b.Decisions())
	}
}

// errAfterCtx mirrors the limits-package test helper: Err returns nil
// for the first allow calls, context.Canceled afterwards.
type errAfterCtx struct {
	context.Context
	allow int
	calls int
}

func (c *errAfterCtx) Err() error {
	c.calls++
	if c.calls > c.allow {
		return context.Canceled
	}
	return nil
}
