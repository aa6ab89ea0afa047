package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/fixtures"
	"repro/internal/rules"
	"repro/internal/sim"
)

// tinySetup builds a schema/database/spec from source texts.
func tinySetup(t *testing.T, schemaFn func(*db.Schema), facts func(*db.Database), specSrc string, reg *sim.Registry) (*Engine, *db.Database) {
	t.Helper()
	s := db.NewSchema()
	schemaFn(s)
	d := db.New(s, nil)
	facts(d)
	spec, err := rules.ParseSpec(specSrc, s, d.Interner(), reg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(d, spec, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e, d
}

func lookup(t *testing.T, d *db.Database, name string) db.Const {
	t.Helper()
	c, ok := d.Interner().Lookup(name)
	if !ok {
		t.Fatalf("constant %q not interned", name)
	}
	return c
}

// isCertainMerge decides CertMerge for (a, b) as membership in e's
// certain merges.
func isCertainMerge(t *testing.T, e *Engine, a, b db.Const) bool {
	t.Helper()
	cm, err := e.CertainMergesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return containsPair(cm, eqrel.MakePair(a, b))
}

// isCertainBoolean decides CertAnswer for a Boolean query: its certain
// answers are the empty tuple or nothing.
func isCertainBoolean(t *testing.T, e *Engine, q *cq.CQ) bool {
	t.Helper()
	ans, err := e.CertainAnswersCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return len(ans) > 0
}

// TestNoSolution: an initially violated denial that no merge can repair
// yields an empty solution set, and certain/possible sets are empty.
func TestNoSolution(t *testing.T) {
	e, _ := tinySetup(t,
		func(s *db.Schema) {
			s.MustAdd("P", "a")
			s.MustAdd("Q", "a")
			s.MustAdd("R", "a", "b")
		},
		func(d *db.Database) {
			d.MustInsert("P", "x")
			d.MustInsert("Q", "x")
			d.MustInsert("R", "x", "y")
		},
		// The denial P(v) ∧ Q(v) is violated initially; the only rule
		// merges x and y, which cannot repair it.
		`soft R(x,y) ~> EQ(x,y).
		 denial P(v), Q(v).`,
		nil)
	_, ok, err := e.ExistenceCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("unrepairable instance reported a solution")
	}
	maximal, err := e.MaximalSolutionsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(maximal) != 0 {
		t.Errorf("got %d maximal solutions, want 0", len(maximal))
	}
	cm, err := e.CertainMergesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pm, err := e.PossibleMergesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cm) != 0 || len(pm) != 0 {
		t.Errorf("merge sets nonempty without solutions: certain=%v possible=%v", cm, pm)
	}
}

// TestRepairByMerge: an initial FD violation that merges CAN repair —
// the heart of LACE's interaction between denials and merges.
func TestRepairByMerge(t *testing.T) {
	e, d := tinySetup(t,
		func(s *db.Schema) {
			s.MustAdd("R", "k", "v")
			s.MustAdd("S", "a", "b")
		},
		func(d *db.Database) {
			d.MustInsert("R", "k1", "u")
			d.MustInsert("R", "k1", "w")
			d.MustInsert("S", "u", "w")
		},
		`soft S(x,y) ~> EQ(x,y).
		 denial R(k,v), R(k,v2), v != v2.`,
		nil)
	id := e.Identity()
	ok, err := e.SatisfiesDenials(id)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("FD should be violated initially")
	}
	sol, exists, err := e.ExistenceCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !exists {
		t.Fatal("merging u and w repairs the FD; a solution must exist")
	}
	if !sol.Same(lookup(t, d, "u"), lookup(t, d, "w")) {
		t.Error("solution does not contain the repairing merge")
	}
	// The merge is certain: every solution needs it.
	if !isCertainMerge(t, e, lookup(t, d, "u"), lookup(t, d, "w")) {
		t.Error("repairing merge should be certain")
	}
}

// TestRecursiveMerges: merges trigger further merges through induced
// facts — the collective behaviour of Example 4 in miniature. Merging
// companies makes two people share an employer, which then merges them.
func TestRecursiveMerges(t *testing.T) {
	e, d := tinySetup(t,
		func(s *db.Schema) {
			s.MustAdd("Emp", "person", "company")
			s.MustAdd("SameCo", "c1", "c2")
		},
		func(d *db.Database) {
			d.MustInsert("Emp", "p1", "cA")
			d.MustInsert("Emp", "p2", "cB")
			d.MustInsert("SameCo", "cA", "cB")
		},
		`soft s1: SameCo(x,y) ~> EQ(x,y).
		 soft s2: Emp(x,c), Emp(y,c) ~> EQ(x,y).`,
		nil)
	// (p1,p2) is NOT active initially.
	act, err := e.ActivePairs(e.Identity())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range act {
		if a.Pair == eqrel.MakePair(lookup(t, d, "p1"), lookup(t, d, "p2")) {
			t.Fatal("(p1,p2) active before the company merge")
		}
	}
	// But it is a possible (indeed certain) merge thanks to the dynamic
	// semantics.
	if !isCertainMerge(t, e, lookup(t, d, "p1"), lookup(t, d, "p2")) {
		t.Error("recursive merge not derived: dynamic semantics broken")
	}
}

// TestRepFilterFallback pins the full rerun of a plan with a RepFilter
// after a merge. Merging ab and zz makes approx(n,"zz") hold for n1 and
// n2 although no N tuple changes, so a delta round seeded by ab and zz
// alone would miss x1 = x2. Both the engine and the snapshot must
// report both merges as certain.
func TestRepFilterFallback(t *testing.T) {
	sims := sim.NewRegistry(sim.NewTable("approx").Add("n1", "ab").Add("n2", "ab"))
	e, d := tinySetup(t,
		func(s *db.Schema) {
			s.MustAdd("P", "id", "v")
			s.MustAdd("N", "id", "name")
		},
		func(d *db.Database) {
			d.MustInsert("P", "p1", "ab")
			d.MustInsert("P", "p1", "zz")
			d.MustInsert("N", "x1", "n1")
			d.MustInsert("N", "x2", "n2")
		},
		`hard h: P(u,a), P(u,b) => EQ(a,b).
		 soft s: N(x,n), N(y,m), approx(n,"zz"), approx(m,"zz") ~> EQ(x,y).`,
		sims)
	want := []eqrel.Pair{
		eqrel.MakePair(lookup(t, d, "ab"), lookup(t, d, "zz")),
		eqrel.MakePair(lookup(t, d, "x1"), lookup(t, d, "x2")),
	}
	snap, err := NewSnapshot(d, e.Spec(), sims, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, certain := range map[string]func(context.Context) ([]eqrel.Pair, error){
		"core.New": e.CertainMergesCtx, "NewSnapshot": snap.CertainMergesCtx,
	} {
		got, err := certain(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || !containsPair(got, want[0]) || !containsPair(got, want[1]) {
			t.Errorf("%s: certain merges %v, want %v", name, got, want)
		}
	}
}

// TestProp1Equivalence: Σ and its Proposition 1 transformation have
// identical solution sets on the Figure 1 database.
func TestProp1Equivalence(t *testing.T) {
	e, f := fig1Engine(t)
	tr := f.Spec.Prop1Transform()
	e2, err := New(f.DB, tr, f.Sims, Options{})
	if err != nil {
		t.Fatal(err)
	}
	collect := func(en *Engine) map[string]bool {
		out := make(map[string]bool)
		if err := en.SolutionsCtx(context.Background(), func(E *eqrel.Partition) bool {
			out[E.Key()] = true
			return false
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	s1, s2 := collect(e), collect(e2)
	if len(s1) == 0 {
		t.Fatal("no solutions collected")
	}
	if len(s1) != len(s2) {
		t.Fatalf("solution counts differ: %d vs %d", len(s1), len(s2))
	}
	for k := range s1 {
		if !s2[k] {
			t.Fatal("transformed spec misses a solution")
		}
	}
}

// TestTheorem9HardOnly: with Γs = ∅ there is a unique maximal solution
// (the hard closure) or none.
func TestTheorem9HardOnly(t *testing.T) {
	e, d := tinySetup(t,
		func(s *db.Schema) {
			s.MustAdd("R", "a", "b")
			s.MustAdd("L", "a", "b")
		},
		func(d *db.Database) {
			d.MustInsert("L", "x", "y")
			d.MustInsert("L", "y", "z")
			d.MustInsert("R", "k", "x")
			d.MustInsert("R", "k", "z")
		},
		`hard L(x,y) => EQ(x,y).`,
		nil)
	maximal, err := e.MaximalSolutionsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(maximal) != 1 {
		t.Fatalf("hard-only spec: %d maximal solutions, want 1", len(maximal))
	}
	m := maximal[0]
	if !m.Same(lookup(t, d, "x"), lookup(t, d, "z")) {
		t.Error("hard closure missing transitive merge (x,z)")
	}
	// All decision problems agree with the closure.
	if !isCertainMerge(t, e, lookup(t, d, "x"), lookup(t, d, "y")) {
		t.Error("hard merge not certain")
	}
	// And with an unrepairable denial, no solution.
	e2, _ := tinySetup(t,
		func(s *db.Schema) {
			s.MustAdd("R", "a", "b")
			s.MustAdd("L", "a", "b")
		},
		func(d *db.Database) {
			d.MustInsert("L", "x", "y")
			d.MustInsert("R", "x", "y")
		},
		`hard L(x,y) => EQ(x,y).
		 denial R(a,b).`,
		nil)
	maximal, err = e2.MaximalSolutionsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(maximal) != 0 {
		t.Error("inconsistent hard-only spec has a maximal solution")
	}
}

// TestTheorem9DenialFree: with Δ = ∅ the closure under all rules is the
// unique maximal solution.
func TestTheorem9DenialFree(t *testing.T) {
	e, d := tinySetup(t,
		func(s *db.Schema) {
			s.MustAdd("E", "a", "b")
			s.MustAdd("V", "a")
		},
		func(d *db.Database) {
			d.MustInsert("V", "u")
			d.MustInsert("V", "v")
			d.MustInsert("V", "w")
			d.MustInsert("E", "r", "u")
			d.MustInsert("E", "r", "v")
			d.MustInsert("E", "u", "w")
		},
		`soft E(z,x), E(z,y) ~> EQ(x,y).`,
		nil)
	maximal, err := e.MaximalSolutionsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(maximal) != 1 {
		t.Fatalf("denial-free spec: %d maximal solutions, want 1", len(maximal))
	}
	m := maximal[0]
	// u ~ v directly; after u~v the facts E(u,w) and E(v?,...) — only
	// (u,v) and its consequences are derivable here.
	if !m.Same(lookup(t, d, "u"), lookup(t, d, "v")) {
		t.Error("(u,v) missing from the unique maximal solution")
	}
	// Certain merges equal the closure's pairs.
	cm, err := e.CertainMergesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cm) != m.PairCount() {
		t.Errorf("certain merges %d != closure pairs %d", len(cm), m.PairCount())
	}
}

// TestRestrictedPruning: with inequality-free denials the searcher
// prunes inconsistent branches; results match the general path.
func TestRestrictedPruning(t *testing.T) {
	build := func() (*Engine, *db.Database) {
		return tinySetup(t,
			func(s *db.Schema) {
				s.MustAdd("S", "a", "b")
				s.MustAdd("Bad", "a")
			},
			func(d *db.Database) {
				d.MustInsert("S", "u", "v")
				d.MustInsert("S", "v", "w")
				d.MustInsert("Bad", "u")
				d.MustInsert("Bad", "w")
			},
			// Merging u..w creates Bad(u) twice — fine. The denial
			// forbids Bad(x) ∧ S(x,y) ∧ Bad(y) under merges: merging u,v
			// makes S(u,w) with Bad(u), Bad(w).
			`soft S(x,y) ~> EQ(x,y).
			 denial Bad(x), S(x,y), Bad(y).`,
			nil)
	}
	e, d := build()
	if !e.Spec().IsRestricted() {
		t.Fatal("spec should be restricted")
	}
	u, v, w := lookup(t, d, "u"), lookup(t, d, "v"), lookup(t, d, "w")
	// Initially consistent: S(u,v),S(v,w): Bad(u) ∧ S(u,v): v not Bad.
	ok, err := e.SatisfiesDenials(e.Identity())
	if err != nil || !ok {
		t.Fatalf("identity should be consistent: %v %v", ok, err)
	}
	// Merging (u,v) induces S(u,w): violation. So (u,v) possible?
	pm, err := e.IsPossibleMergeCtx(context.Background(), u, v)
	if err != nil {
		t.Fatal(err)
	}
	if pm {
		t.Error("(u,v) merge leads to a persistent violation; must be impossible")
	}
	pm, err = e.IsPossibleMergeCtx(context.Background(), v, w)
	if err != nil {
		t.Fatal(err)
	}
	if pm {
		t.Error("(v,w) merge also induces the violation; must be impossible")
	}
	// The identity is the unique (maximal) solution.
	maximal, err := e.MaximalSolutionsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(maximal) != 1 || !maximal[0].IsIdentity() {
		t.Errorf("maximal solutions = %v, want just the identity", maximal)
	}
	isMax, err := e.IsMaximalSolution(context.Background(), e.Identity())
	if err != nil || !isMax {
		t.Errorf("identity not recognized as maximal: %v %v", isMax, err)
	}
}

// TestBudgetExceeded: a tiny state budget aborts search with ErrBudget.
func TestBudgetExceeded(t *testing.T) {
	f := fixtures.New()
	e, err := New(f.DB, f.Spec, f.Sims, Options{MaxStates: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.MaximalSolutionsCtx(context.Background())
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

// TestReflexiveRuleHead: EQ(x,x) rules are tolerated (their answers are
// reflexive pairs, which are never active).
func TestReflexiveRuleHead(t *testing.T) {
	e, _ := tinySetup(t,
		func(s *db.Schema) { s.MustAdd("V", "a") },
		func(d *db.Database) { d.MustInsert("V", "n") },
		`soft V(x), V(y) ~> EQ(x,x).`,
		nil)
	act, err := e.ActivePairs(e.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if len(act) != 0 {
		t.Errorf("reflexive rule produced active pairs: %v", act)
	}
	maximal, err := e.MaximalSolutionsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(maximal) != 1 || !maximal[0].IsIdentity() {
		t.Error("reflexive-only spec should have the identity as unique maximal solution")
	}
}

// TestSolutionsEnumerationCount verifies the Figure 1 solution count is
// stable (every subset of choices consistent with the constraints).
func TestSolutionsEnumerationCount(t *testing.T) {
	e, _ := fig1Engine(t)
	count := 0
	if err := e.SolutionsCtx(context.Background(), func(*eqrel.Partition) bool {
		count++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	// Solutions: E2={α,β,ζ} (hard-closed base), +θκ, +λ, +χ, +θκλ,
	// +θκχ, +λχ?(no: δ2), ... enumerate: choices over {θ(→κ), λ, χ}
	// with λχ incompatible: subsets: {}, {θ}, {λ}, {χ}, {θ,λ}, {θ,χ}
	// = 6 solutions.
	if count != 6 {
		t.Errorf("got %d solutions, want 6", count)
	}
}
