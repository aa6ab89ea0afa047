package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/fixtures"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/sim"
)

// randomEngine builds a random small instance exercising joins, hard
// rules, similarity and both denial shapes — the same family the
// Theorem 10 tests use, reproduced here for semantic invariants.
func randomEngine(t *testing.T, rng *rand.Rand) *Engine {
	t.Helper()
	d, spec, reg := randomInstance(t, rng)
	e, err := New(d, spec, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// randomInstance generates the database, specification and similarity
// registry of one random instance, so tests can build several engines
// (e.g. sequential and parallel) over identical inputs.
func randomInstance(t *testing.T, rng *rand.Rand) (*db.Database, *rules.Spec, *sim.Registry) {
	t.Helper()
	sch := db.NewSchema()
	sch.MustAdd("R", "a", "b")
	sch.MustAdd("S", "k", "v")
	sch.MustAdd("N", "id", "name")
	d := db.New(sch, nil)
	consts := []string{"c0", "c1", "c2", "c3", "c4"}
	names := []string{"na", "nb", "nc"}
	for i := 0; i < 2+rng.Intn(4); i++ {
		d.MustInsert("R", consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))])
	}
	for i := 0; i < 2+rng.Intn(4); i++ {
		d.MustInsert("S", consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))])
	}
	for i := 0; i < 3; i++ {
		d.MustInsert("N", consts[rng.Intn(len(consts))], names[rng.Intn(len(names))])
	}
	tbl := sim.NewTable("approx").Add("na", "nb")
	if rng.Intn(2) == 0 {
		tbl.Add("nb", "nc")
	}
	reg := sim.NewRegistry(tbl)
	src := `soft s1: R(x,y) ~> EQ(x,y).
soft s2: N(x,n), N(y,n2), approx(n,n2) ~> EQ(x,y).`
	if rng.Intn(2) == 0 {
		src += "\nhard h1: S(z,x), S(z,y) => EQ(x,y)."
	}
	switch rng.Intn(6) {
	case 0:
		src += "\ndenial d1: S(k,v), S(k,v2), v != v2."
	case 1:
		src += "\ndenial d1: R(x,x)."
	case 2:
		src += "\ndenial d1: S(k,v), R(v,k)."
	case 3: // no denial
	case 4:
		src += "\ndenial d1: S(k,v), v != \"c1\"."
	case 5:
		src += "\ndenial d1: S(k,v), \"c0\" != \"c2\"."
	}
	spec, err := rules.ParseSpec(src, sch, d.Interner(), reg)
	if err != nil {
		t.Fatal(err)
	}
	return d, spec, reg
}

// TestPropertyEverySolutionRecognized: everything the enumerator emits
// passes the independent Rec check, and every maximal solution passes
// MaxRec.
func TestPropertyEverySolutionRecognized(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 25; trial++ {
		e := randomEngine(t, rng)
		var sols []*eqrel.Partition
		if err := e.SolutionsCtx(context.Background(), func(E *eqrel.Partition) bool {
			sols = append(sols, E.Clone())
			return false
		}); err != nil {
			t.Fatal(err)
		}
		for _, s := range sols {
			ok, err := e.IsSolution(s)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("trial %d: enumerated solution fails Rec: %v", trial, s)
			}
		}
		maximal, err := e.MaximalSolutionsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range maximal {
			ok, err := e.IsMaximalSolution(context.Background(), m)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("trial %d: maximal solution fails MaxRec: %v", trial, m)
			}
		}
		// And non-maximal solutions fail MaxRec.
		for _, s := range sols {
			isMax := false
			for _, m := range maximal {
				if s.Equal(m) {
					isMax = true
				}
			}
			got, err := e.IsMaximalSolution(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			if got != isMax {
				t.Fatalf("trial %d: MaxRec(%v) = %v, enumeration says %v", trial, s, got, isMax)
			}
		}
	}
}

// TestPropertyEverySolutionInSomeMaximal: solutions embed into maximal
// ones (the lattice has no dead ends), so possMerge via any solution is
// sound.
func TestPropertyEverySolutionInSomeMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 25; trial++ {
		e := randomEngine(t, rng)
		maximal, err := e.MaximalSolutionsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SolutionsCtx(context.Background(), func(E *eqrel.Partition) bool {
			for _, m := range maximal {
				if E.Subset(m) {
					return false
				}
			}
			t.Fatalf("trial %d: solution %v not below any maximal solution", trial, E)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPropertyMaximalFromTop: MaximalSolutionsCtx is the maximal
// antichain of SolutionsCtx and PossibleMergesCtx its pair union, on
// both branches of the top test — a consistent top answered without a
// walk, and an inconsistent one (Figure 1's among them) that walks.
func TestPropertyMaximalFromTop(t *testing.T) {
	ctx := context.Background()
	check := func(name string, e *Engine) (consistentTop bool) {
		t.Helper()
		var sols []*eqrel.Partition
		if err := e.SolutionsCtx(ctx, func(E *eqrel.Partition) bool {
			sols = append(sols, E.Clone())
			return false
		}); err != nil {
			t.Fatal(err)
		}
		var want []string
		union := make(map[eqrel.Pair]bool)
		for _, s := range sols {
			dominated := false
			for _, o := range sols {
				dominated = dominated || s.ProperSubset(o)
			}
			if !dominated {
				want = append(want, s.Key())
			}
			for _, p := range s.Pairs() {
				union[p] = true
			}
		}
		sort.Strings(want)
		states := e.Stats().Counter(obs.CoreSearchStates)
		maximal, err := e.MaximalSolutionsCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		walked := e.Stats().Counter(obs.CoreSearchStates) - states
		var got []string
		for _, m := range maximal {
			got = append(got, m.Key())
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: MaximalSolutionsCtx = %v, want the antichain %v", name, got, want)
		}
		pm, err := e.PossibleMergesCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if wantPM := sortedPairs(union); !slices.Equal(pm, wantPM) {
			t.Fatalf("%s: PossibleMergesCtx = %v, want the pair union %v", name, pm, wantPM)
		}
		top, err := e.consistentTop(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if top != nil && walked != 0 {
			t.Fatalf("%s: consistent top, but MaximalSolutionsCtx explored %d states", name, walked)
		}
		if top == nil && walked == 0 {
			t.Fatalf("%s: inconsistent top, but MaximalSolutionsCtx explored no state", name)
		}
		return top != nil
	}
	f := fixtures.New()
	fe, err := New(f.DB, f.Spec, f.Sims, Options{Recorder: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if check("figure 1", fe) {
		t.Fatal("figure 1: top is consistent, want the walk")
	}
	rng := rand.New(rand.NewSource(909))
	branches := [2]int{}
	for trial := 0; trial < 60; trial++ {
		d, spec, reg := randomInstance(t, rng)
		for _, par := range []int{1, 2} {
			e, err := New(d, spec, reg, Options{Parallelism: par, Recorder: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			if check(fmt.Sprintf("trial %d, parallelism %d", trial, par), e) {
				branches[1]++
			} else {
				branches[0]++
			}
		}
	}
	t.Logf("inconsistent top %d times, consistent top %d times", branches[0], branches[1])
	if branches[0] == 0 || branches[1] == 0 {
		t.Fatalf("random instances hit the inconsistent top %d times and the consistent top %d times; want both",
			branches[0], branches[1])
	}
}

// TestPropertyCertainSubsetPossible: certMerge ⊆ possMerge, and both
// agree with the per-pair deciders.
func TestPropertyCertainSubsetPossible(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 20; trial++ {
		e := randomEngine(t, rng)
		cm, err := e.CertainMergesCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		pm, err := e.PossibleMergesCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		poss := make(map[eqrel.Pair]bool, len(pm))
		for _, p := range pm {
			poss[p] = true
		}
		for _, p := range cm {
			if !poss[p] {
				t.Fatalf("trial %d: certain pair %v not possible", trial, p)
			}
		}
		for _, p := range pm {
			ok, err := e.IsPossibleMergeCtx(context.Background(), p.A, p.B)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("trial %d: PossibleMerges/IsPossibleMerge disagree on %v", trial, p)
			}
		}
	}
}

// TestPropertyActivityMonotone: the paper's key monotonicity — a pair
// active in (D, E) stays active in (D, E′) for E ⊆ E′ (rule bodies are
// negation-free). Verified along random growth chains.
func TestPropertyActivityMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 20; trial++ {
		e := randomEngine(t, rng)
		E := e.Identity()
		prev, err := e.ActivePairs(E)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 4 && len(prev) > 0; step++ {
			// Add one random active pair.
			a := prev[rng.Intn(len(prev))]
			E.Add(a.Pair)
			cur, err := e.ActivePairs(E)
			if err != nil {
				t.Fatal(err)
			}
			curSet := make(map[eqrel.Pair]bool, len(cur))
			for _, c := range cur {
				curSet[c.Pair] = true
			}
			for _, p := range prev {
				// Still active unless now inside E. Note activity is
				// stated over representative pairs; re-normalize.
				u, v := E.Rep(p.Pair.A), E.Rep(p.Pair.B)
				if u == v {
					continue
				}
				if !curSet[eqrel.MakePair(u, v)] {
					t.Fatalf("trial %d step %d: pair %v lost activity after growth", trial, step, p.Pair)
				}
			}
			prev = cur
		}
	}
}

// TestPropertyJustifyAllMergesOfAllMaximal: every merge of every
// maximal solution is justifiable, across random instances.
func TestPropertyJustifyAllMergesOfAllMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 15; trial++ {
		e := randomEngine(t, rng)
		maximal, err := e.MaximalSolutionsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range maximal {
			for _, p := range m.Pairs() {
				j, err := e.Justify(m, p.A, p.B)
				if err != nil {
					t.Fatalf("trial %d: justify %v: %v", trial, p, err)
				}
				if len(j.Steps) == 0 || j.Steps[len(j.Steps)-1].Pair != p {
					t.Fatalf("trial %d: malformed justification for %v", trial, p)
				}
			}
		}
	}
}

// TestPropertyGreedyIsSolution: whenever the greedy pass reports
// consistency, its result passes the independent Rec check.
func TestPropertyGreedyIsSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 25; trial++ {
		e := randomEngine(t, rng)
		sol, ok, err := e.GreedySolutionCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		isSol, err := e.IsSolution(sol)
		if err != nil {
			t.Fatal(err)
		}
		if !isSol {
			t.Fatalf("trial %d: greedy result fails Rec", trial)
		}
	}
}

// TestPropertyProp1SolutionSets: Proposition 1 on random instances.
func TestPropertyProp1SolutionSets(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	for trial := 0; trial < 15; trial++ {
		e := randomEngine(t, rng)
		tr := e.Spec().Prop1Transform()
		e2, err := New(e.DB(), tr, e.Sims(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		collect := func(en *Engine) map[string]bool {
			out := map[string]bool{}
			if err := en.SolutionsCtx(context.Background(), func(E *eqrel.Partition) bool {
				out[E.Key()] = true
				return false
			}); err != nil {
				t.Fatal(err)
			}
			return out
		}
		s1, s2 := collect(e), collect(e2)
		if len(s1) != len(s2) {
			t.Fatalf("trial %d: %d vs %d solutions after Prop1 transform", trial, len(s1), len(s2))
		}
		for k := range s1 {
			if !s2[k] {
				t.Fatalf("trial %d: transform changed the solution set", trial)
			}
		}
	}
}

// naiveClose is the reference fixpoint the semi-naive closure is
// differentially tested against: recompute every active pair from
// scratch each round and union the accepted ones until nothing changes.
func naiveClose(t *testing.T, e *Engine, E *eqrel.Partition, hardOnly bool) {
	t.Helper()
	for {
		aps, err := e.ActivePairs(E)
		if err != nil {
			t.Fatal(err)
		}
		changed := false
		for _, a := range aps {
			if hardOnly && !a.Hard {
				continue
			}
			if E.Add(a.Pair) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// randomPartition unions a few random constant pairs.
func randomPartition(e *Engine, rng *rand.Rand) *eqrel.Partition {
	E := e.Identity()
	n := e.DB().Interner().Size()
	for i := 0; i < rng.Intn(3); i++ {
		a, b := db.Const(rng.Intn(n)), db.Const(rng.Intn(n))
		if a != b {
			E.Add(eqrel.MakePair(a, b))
		}
	}
	return E
}

// TestPropertyFixpointMatchesNaive: the semi-naive HardClose/AllClose
// reach exactly the partition the naive recompute-everything fixpoint
// reaches, from random engines and random start partitions.
func TestPropertyFixpointMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for trial := 0; trial < 30; trial++ {
		e := randomEngine(t, rng)
		start := randomPartition(e, rng)

		hard := start.Clone()
		if err := e.HardClose(hard); err != nil {
			t.Fatal(err)
		}
		hardRef := start.Clone()
		naiveClose(t, e, hardRef, true)
		if !hard.Equal(hardRef) {
			t.Fatalf("trial %d: HardClose %v, naive fixpoint %v (start %v)",
				trial, hard, hardRef, start)
		}

		all := start.Clone()
		if err := e.AllClose(all); err != nil {
			t.Fatal(err)
		}
		allRef := start.Clone()
		naiveClose(t, e, allRef, false)
		if !all.Equal(allRef) {
			t.Fatalf("trial %d: AllClose %v, naive fixpoint %v (start %v)",
				trial, all, allRef, start)
		}
	}
}

// TestPropertyInducedMatchesFullMap: every induced database the engine
// hands out — including entries seeded incrementally from a parent
// state during search — equals the full D_E recomputed from scratch.
func TestPropertyInducedMatchesFullMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1010))
	for trial := 0; trial < 20; trial++ {
		e := randomEngine(t, rng)
		// Populate the cache through the search path (seedInduced/MapFrom).
		var sols []*eqrel.Partition
		if err := e.SolutionsCtx(context.Background(), func(E *eqrel.Partition) bool {
			sols = append(sols, E.Clone())
			return false
		}); err != nil {
			t.Fatal(err)
		}
		sols = append(sols, randomPartition(e, rng))
		for _, E := range sols {
			got := e.Induced(E)
			want := e.DB().Map(E.Rep)
			if !got.Equal(want) {
				t.Fatalf("trial %d: induced DB for %v diverges from full map", trial, E)
			}
		}
	}
}

// TestPropertyAnswerPreservation: Boolean CQ answers true in a solution
// stay true in every extension within the lattice (homomorphism
// preservation), justifying the PossAnswer shortcut.
func TestPropertyAnswerPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	q, qerr := rules.ParseQuery(`R(x,y), S(y,z)`, func() *db.Schema {
		s := db.NewSchema()
		s.MustAdd("R", "a", "b")
		s.MustAdd("S", "k", "v")
		s.MustAdd("N", "id", "name")
		return s
	}(), nil, nil)
	if qerr != nil {
		t.Fatal(qerr)
	}
	for trial := 0; trial < 15; trial++ {
		e := randomEngine(t, rng)
		var sols []*eqrel.Partition
		if err := e.SolutionsCtx(context.Background(), func(E *eqrel.Partition) bool {
			sols = append(sols, E.Clone())
			return false
		}); err != nil {
			t.Fatal(err)
		}
		for _, s := range sols {
			holds, err := e.HoldsIn(q, nil, s)
			if err != nil {
				t.Fatal(err)
			}
			if !holds {
				continue
			}
			for _, s2 := range sols {
				if !s.Subset(s2) {
					continue
				}
				holds2, err := e.HoldsIn(q, nil, s2)
				if err != nil {
					t.Fatal(err)
				}
				if !holds2 {
					t.Fatalf("trial %d: Boolean answer lost under solution growth", trial)
				}
			}
		}
	}
}
