package core

// shard_test.go is the differential guarantee of the sharded engine:
// on every fixture the repo already has (Figure 1, the synthetic
// workload) and on a few hundred random instances, certain merges,
// possible merges, the full maximal-solution set and the witnesses
// explanations cite must be byte-identical to the monolithic engine's.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/fixtures"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/workload"
)

// resolution is the question set both Engine and EpochSnapshot answer,
// for the tables of tests that compare the two.
type resolution interface {
	CertainMergesCtx(ctx context.Context) ([]eqrel.Pair, error)
	PossibleMergesCtx(ctx context.Context) ([]eqrel.Pair, error)
	MaximalSolutionsCtx(ctx context.Context) ([]*eqrel.Partition, error)
}

// assertShardedEquals compares every decision surface of the monolithic
// engine and the snapshot and fails with a diff on the first
// divergence.
func assertShardedEquals(t *testing.T, label string, mono *Engine, se *EpochSnapshot) {
	t.Helper()

	mc, err := mono.CertainMergesCtx(context.Background())
	if err != nil {
		t.Fatalf("%s: monolithic certain: %v", label, err)
	}
	sc, err := se.CertainMergesCtx(context.Background())
	if err != nil {
		t.Fatalf("%s: sharded certain: %v", label, err)
	}
	if fmt.Sprintf("%v", mc) != fmt.Sprintf("%v", sc) || (mc == nil) != (sc == nil) {
		t.Fatalf("%s: certain merges diverge:\n  monolithic %v\n  sharded    %v", label, mc, sc)
	}

	mp, err := mono.PossibleMergesCtx(context.Background())
	if err != nil {
		t.Fatalf("%s: monolithic possible: %v", label, err)
	}
	sp, err := se.PossibleMergesCtx(context.Background())
	if err != nil {
		t.Fatalf("%s: sharded possible: %v", label, err)
	}
	if fmt.Sprintf("%v", mp) != fmt.Sprintf("%v", sp) || (mp == nil) != (sp == nil) {
		t.Fatalf("%s: possible merges diverge:\n  monolithic %v\n  sharded    %v", label, mp, sp)
	}

	mm, err := mono.MaximalSolutionsCtx(context.Background())
	if err != nil {
		t.Fatalf("%s: monolithic maximal: %v", label, err)
	}
	sm, err := se.MaximalSolutionsCtx(context.Background())
	if err != nil {
		t.Fatalf("%s: sharded maximal: %v", label, err)
	}
	if len(mm) != len(sm) {
		t.Fatalf("%s: %d monolithic vs %d sharded maximal solutions", label, len(mm), len(sm))
	}
	for i := range mm {
		if mm[i].Key() != sm[i].Key() {
			t.Fatalf("%s: maximal solution %d diverges:\n  monolithic %v\n  sharded    %v",
				label, i, mm[i], sm[i])
		}
	}

	mw, mok, err := mono.ExistenceCtx(context.Background())
	if err != nil {
		t.Fatalf("%s: monolithic existence: %v", label, err)
	}
	sw, sok, err := se.ExistenceCtx(context.Background())
	if err != nil {
		t.Fatalf("%s: sharded existence: %v", label, err)
	}
	if mok != sok {
		t.Fatalf("%s: existence %v (monolithic) vs %v (sharded)", label, mok, sok)
	}
	if sok {
		ok := mono.IsSolution(sw)
		if !ok {
			t.Fatalf("%s: sharded existence witness is not a solution: %v", label, sw)
		}
		// The witness is pinned to the first maximal solution, except
		// where existence defers to the monolithic engine: Theorem 8's
		// hard closure on a restricted spec, and on a fallback whatever
		// solution the (possibly parallel) search reaches first.
		st, err := se.Stats()
		if err != nil {
			t.Fatalf("%s: stats: %v", label, err)
		}
		want := mm[0]
		if mono.Spec().IsRestricted() {
			want = mw
		}
		if !st.Monolithic && sw.Key() != want.Key() {
			t.Fatalf("%s: sharded existence witness %v, want %v", label, sw, want)
		}
	}

	// Explanations take the canonically first maximal solution containing
	// and excluding each pair; the sharded engine names them shard by
	// shard, so this pins its ordering argument.
	with, without, err := mono.witnesses(context.Background(), mp)
	if err != nil {
		t.Fatalf("%s: monolithic witnesses: %v", label, err)
	}
	mx, err := mono.explainMerges(mp, with, without)
	if err != nil {
		t.Fatalf("%s: monolithic explain: %v", label, err)
	}
	sx, err := se.ExplainMergesCtx(context.Background(), mp)
	if err != nil {
		t.Fatalf("%s: sharded explain: %v", label, err)
	}
	key := func(E *eqrel.Partition) string {
		if E == nil {
			return "none"
		}
		return E.String()
	}
	for i, p := range mp {
		m, s := mx[i], sx[i]
		if m.Status != s.Status || key(m.Witness) != key(s.Witness) || key(m.CounterExample) != key(s.CounterExample) {
			t.Fatalf("%s: explanations of %v diverge:\n  monolithic %v in %s, not in %s\n  sharded    %v in %s, not in %s",
				label, p, m.Status, key(m.Witness), key(m.CounterExample), s.Status, key(s.Witness), key(s.CounterExample))
		}
	}
}

// TestShardDifferentialFigure1: the paper's running example resolves
// identically sharded and monolithic.
func TestShardDifferentialFigure1(t *testing.T) {
	f := fixtures.New()
	mono, err := New(f.DB, f.Spec, f.Sims, Options{})
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewSnapshot(f.DB, f.Spec, f.Sims, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertShardedEquals(t, "figure1", mono, se)
	st, err := se.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Monolithic && st.Shards == 0 {
		t.Fatal("figure1 produced no shards despite nontrivial merges")
	}
}

// TestShardDifferentialShiftedIDs: Figure 1 with its constants
// renumbered behind filler names, so shard members straddle id 128,
// where the varint encoding behind Partition.Key stops following
// numeric order. A shard's own solve numbers its constants afresh, so
// only an order taken on global ids keeps the sharded witnesses equal
// to the monolithic ones.
func TestShardDifferentialShiftedIDs(t *testing.T) {
	f := fixtures.New()
	for shift := 60; shift <= 130; shift += 5 {
		in := db.NewInterner()
		for i := 0; i < shift; i++ {
			in.Intern(fmt.Sprintf("filler%d", i))
		}
		d := db.New(f.Schema, in)
		for _, fact := range f.DB.Facts() {
			names := make([]string, len(fact.Args))
			for i, c := range fact.Args {
				names[i] = f.DB.Interner().Name(c)
			}
			d.MustInsert(fact.Rel, names...)
		}
		spec, err := rules.ParseSpec(fixtures.SpecText, f.Schema, in, f.Sims)
		if err != nil {
			t.Fatal(err)
		}
		mono, err := New(d, spec, f.Sims, Options{})
		if err != nil {
			t.Fatal(err)
		}
		se, err := NewSnapshot(d, spec, f.Sims, Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertShardedEquals(t, fmt.Sprintf("shift %d", shift), mono, se)
	}
}

// TestShardDifferentialWorkload: the synthetic bibliographic generator
// at its default (small) size.
func TestShardDifferentialWorkload(t *testing.T) {
	ds, err := workload.Generate(workload.DefaultConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	mono, err := New(ds.DB, ds.Spec, ds.Sims, Options{})
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewSnapshot(ds.DB, ds.Spec, ds.Sims, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertShardedEquals(t, "workload", mono, se)
}

// TestShardDifferentialRandom: ≥100 random instances from the shared
// property-test generator, under both sequential and parallel shard
// solving. This is the acceptance differential; CI runs it with -race.
func TestShardDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	trials := 120
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		d, spec, reg := randomInstance(t, rng)
		mono, err := New(d, spec, reg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		par := 1 + trial%3 // exercise 1, 2 and 3 shard workers
		se, err := NewSnapshot(d, spec, reg, Options{Parallelism: par}, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertShardedEquals(t, fmt.Sprintf("trial %d (par %d)", trial, par), mono, se)
	}
}

// FuzzShardedEqualsMonolithic: on the random instance a seed generates,
// the sharded engine answers like the monolithic one, runs at most one
// stitch pass, and finds no possible merge outside the lattice top T.
// The last is the premise of the one-pass stitch: a shard can never
// derive a merge that is not already in G = T, so nothing it finds
// needs feeding back.
func FuzzShardedEqualsMonolithic(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		d, spec, reg := randomInstance(t, rand.New(rand.NewSource(seed)))
		mono, err := New(d, spec, reg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		par := 1 + int(uint64(seed)%3)
		se, err := NewSnapshot(d, spec, reg, Options{Parallelism: par}, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertShardedEquals(t, fmt.Sprintf("seed %d (par %d)", seed, par), mono, se)
		st, err := se.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Rounds > 1 {
			t.Fatalf("seed %d: %d stitch rounds, want at most 1", seed, st.Rounds)
		}
		T, _, consistent, err := mono.Fork().top(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: consistent top %v, %d shards, %d solves", seed, consistent, st.Shards, st.Solves)
		possible, err := se.PossibleMergesCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range possible {
			if !T.Same(p.A, p.B) {
				t.Fatalf("seed %d: possible merge %v lies outside the top %v", seed, p, T)
			}
		}
	})
}

// TestShardUnsolvable: a choice-independent denial violation yields the
// same no-solution answers sharded and monolithic.
func TestShardUnsolvable(t *testing.T) {
	sch := db.NewSchema()
	sch.MustAdd("R", "a", "b")
	d := db.New(sch, nil)
	d.MustInsert("R", "x", "x") // R(x,x) violated forever: no merge involves x
	reg := sim.NewRegistry()
	spec, err := rules.ParseSpec(`soft s1: R(x,y) ~> EQ(x,y).
denial d1: R(x,x).`, sch, d.Interner(), reg)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := New(d, spec, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewSnapshot(d, spec, reg, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertShardedEquals(t, "unsolvable", mono, se)
	ms, err := se.MaximalSolutionsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ms != nil {
		t.Fatalf("unsolvable instance returned maximal solutions %v", ms)
	}
}

// TestShardInequalityConstants: a constant that occurs only in a
// denial's inequality atom is a constant of every match of that denial.
// In the first instance R(z), z != "e1" is violated in every state,
// so no solution exists, though the match's only mergeable constant
// sits in the inequality. In the second, R(z), "e1" != "e2" forces e1
// and e2 together, which the shard solving them can only see when R(z)
// is projected into it.
func TestShardInequalityConstants(t *testing.T) {
	for _, tc := range []struct {
		name, facts, denials string
		maximal              int
	}{
		{"neq var-const", "", `denial d: R(x), x != "e1".`, 0},
		{"neq const-const", `E(e3,k1). T(e1,p). T(e3,n).`,
			`denial d1: T(x,"p"), T(x,"n").
			denial d2: R(x), "e1" != "e2".`, 1},
	} {
		d, err := db.ParseDatabase(`rel T(id, ty). E(e1,k1). E(e2,k1). R(z). `+tc.facts, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		reg := sim.NewRegistry()
		spec, err := rules.ParseSpec(`soft s: E(x,k), E(y,k) ~> EQ(x,y).
			`+tc.denials, d.Schema(), d.Interner(), reg)
		if err != nil {
			t.Fatal(err)
		}
		mono, err := New(d, spec, reg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ms, err := mono.MaximalSolutionsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != tc.maximal {
			t.Fatalf("%s: %d monolithic maximal solutions, want %d", tc.name, len(ms), tc.maximal)
		}
		se, err := NewSnapshot(d, spec, reg, Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertShardedEquals(t, tc.name, mono, se)
	}
}

// TestShardConcurrentSolves: an inconsistent top with several violated
// components solves them on concurrent workers, each projecting its own
// sub-instance from the shared column indexes. The G match couples
// nothing (its head is a T-singleton), so the first component's support
// names the second component's class, which its projection reads from
// the stitch's shared class list. Under -race this checks that
// projection inside the worker pool only reads; at every worker count
// the answers match the monolithic engine's.
func TestShardConcurrentSolves(t *testing.T) {
	const k = 4
	facts := "rel T(id, ty). G(s,s,a1,a2). "
	for i := 1; i <= k; i++ {
		facts += fmt.Sprintf("E(a%[1]d,k%[1]d). E(b%[1]d,k%[1]d). E(c%[1]d,k%[1]d). T(a%[1]d,p). T(c%[1]d,n). ", i)
	}
	d, err := db.ParseDatabase(facts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := sim.NewRegistry()
	spec, err := rules.ParseSpec(`soft s: E(x,k), E(y,k) ~> EQ(x,y).
		soft g: G(x,y,u,v) ~> EQ(x,y).
		denial d: T(x,"p"), T(x,"n").`, d.Schema(), d.Interner(), reg)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := New(d, spec, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 3} {
		se, err := NewSnapshot(d, spec, reg, Options{Parallelism: par}, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertShardedEquals(t, fmt.Sprintf("par %d", par), mono, se)
		st, err := se.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Solves != k || st.Shards != k {
			t.Fatalf("par %d: %d solves of %d shards, want %d of %d", par, st.Solves, st.Shards, k, k)
		}
		// A shard search over budget fails the resolution and stops the
		// other workers; the error is kept.
		se, err = NewSnapshot(d, spec, reg, Options{Parallelism: par, MaxStates: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if _, err := se.CertainMergesCtx(context.Background()); !errors.Is(err, ErrBudget) {
				t.Fatalf("par %d, MaxStates 1: got %v, want ErrBudget", par, err)
			}
		}
	}
}

// TestShardStatsShape: stats reflect the resolved partition.
func TestShardStatsShape(t *testing.T) {
	ds, err := workload.Generate(workload.DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewSnapshot(ds.DB, ds.Spec, ds.Sims, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := se.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// A consistent lattice top answers the instance in zero rounds; an
	// inconsistent one seeds a stitch that closes in one.
	top, err := se.Engine().Fork().consistentTop(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := 1
	if top != nil {
		want = 0
	}
	if st.Rounds != want {
		t.Fatalf("stats report %d stitch rounds, want %d (consistent top: %v)", st.Rounds, want, top != nil)
	}
	if len(st.Sizes) != st.Shards {
		t.Fatalf("stats report %d sizes for %d shards", len(st.Sizes), st.Shards)
	}
	for _, sz := range st.Sizes {
		if sz < 2 {
			t.Fatalf("shard of size %d: components below 2 are not shards", sz)
		}
	}
	// Possible merges must live inside shard members.
	pm, err := se.PossibleMergesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	members := make(map[db.Const]bool)
	st2, _ := se.Stats()
	_ = st2
	for _, sh := range se.shards {
		for _, m := range sh.Members {
			members[m] = true
		}
	}
	for _, p := range pm {
		if !st.Monolithic && (!members[p.A] || !members[p.B]) {
			t.Fatalf("possible merge %v outside all shards", p)
		}
	}
}

// TestShardDeterministicAcrossParallelism: the composed results carry
// no trace of the shard-solve schedule.
func TestShardDeterministicAcrossParallelism(t *testing.T) {
	ds, err := workload.Generate(workload.DefaultConfig(99))
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, par := range []int{1, 4} {
		se, err := NewSnapshot(ds.DB, ds.Spec, ds.Sims, Options{Parallelism: par}, 0)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := se.MaximalSolutionsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sig := ""
		for _, m := range ms {
			sig += m.Key() + ";"
		}
		keys = append(keys, sig)
	}
	if keys[0] != keys[1] {
		t.Fatal("maximal solutions differ between Parallelism 1 and 4")
	}
}

// TestShardTopFirst: the sharded engine asks the lattice top first. A
// consistent top is the answer, with no stitch or shard solve behind
// it; an inconsistent one runs a one-pass stitch that solves only the
// components a violated denial touches. Figure 1 is one such component. The generated instance with
// eleven Author tuples retracted (the flip TestMutableTopFlips walks
// through) has one among many, and the rest are answered by the top.
// All agree with the monolithic engine.
func TestShardTopFirst(t *testing.T) {
	ctx := context.Background()
	cfg := workload.DefaultScaleConfig(1, 200)
	cfg.MaxDup = 1
	ds, err := workload.GenerateScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = workload.DefaultScaleConfig(5, 100)
	cfg.MaxDup = 1
	flip, err := workload.GenerateScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := flip.DB.Interner()
	var retract []db.FactSpec
	for _, tu := range flip.DB.Tuples("Author")[:11] {
		args := make([]string, len(tu))
		for i, c := range tu {
			args[i] = in.Name(c)
		}
		retract = append(retract, db.FactSpec{Rel: "Author", Args: args})
	}
	flipped, _, _, err := db.Apply(flip.DB, nil, retract)
	if err != nil {
		t.Fatal(err)
	}
	f := fixtures.New()
	for _, tc := range []struct {
		name       string
		d          *db.Database
		spec       *rules.Spec
		sims       *sim.Registry
		consistent bool
		rounds     int
		solves     int
	}{
		{"scale 200", ds.DB, ds.Spec, ds.Sims, true, 0, 0},
		{"figure1", f.DB, f.Spec, f.Sims, false, 1, 1},
		{"scale 100, 11 retracted", flipped, flip.Spec, flip.Sims, false, 1, 1},
	} {
		mono, err := New(tc.d, tc.spec, tc.sims, Options{})
		if err != nil {
			t.Fatal(err)
		}
		top, err := mono.Fork().consistentTop(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if (top != nil) != tc.consistent {
			t.Fatalf("%s: consistent top %v, want %v", tc.name, top != nil, tc.consistent)
		}
		se, err := NewSnapshot(tc.d, tc.spec, tc.sims, Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertShardedEquals(t, tc.name, mono, se)
		st, err := se.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Monolithic || st.Shards == 0 {
			t.Fatalf("%s: %d shards, monolithic fallback %v", tc.name, st.Shards, st.Monolithic)
		}
		if st.Rounds != tc.rounds {
			t.Fatalf("%s: %d stitch rounds, want %d", tc.name, st.Rounds, tc.rounds)
		}
		t.Logf("%s: %d shards, %d solved", tc.name, st.Shards, st.Solves)
		if st.Solves != tc.solves {
			t.Fatalf("%s: %d of %d shards solved, want %d", tc.name, st.Solves, st.Shards, tc.solves)
		}
	}
}

// TestShardSimilarityCallsMatchMonolithic: sharded resolution evaluates
// the similarity metric no more often than the monolithic engine on the
// same instance. The partition is built by the coupling analysis alone,
// which only evaluates similarity atoms inside rule and denial bodies,
// so no all-pairs comparison over the constant space may creep in.
func TestShardSimilarityCallsMatchMonolithic(t *testing.T) {
	for _, entities := range []int{200, 400} {
		cfg := workload.DefaultScaleConfig(1, entities)
		cfg.MaxDup = 1
		ds, err := workload.GenerateScale(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Each run gets a fresh registry, so neither starts from the
		// other's similarity memo.
		counting := func(calls *atomic.Int64) *sim.Registry {
			metric := func(a, b string) float64 {
				calls.Add(1)
				return sim.NormalizedLevenshtein(a, b)
			}
			return sim.NewRegistry(sim.Threshold("approx", metric, 0.82))
		}
		resolve := func(sharded bool) int64 {
			var calls atomic.Int64
			sims := counting(&calls)
			opts := Options{Parallelism: 1}
			var r resolution
			if sharded {
				se, err := NewSnapshot(ds.DB, ds.Spec, sims, opts, 0)
				if err != nil {
					t.Fatal(err)
				}
				r = se
			} else {
				eng, err := New(ds.DB, ds.Spec, sims, opts)
				if err != nil {
					t.Fatal(err)
				}
				r = eng
			}
			if _, err := r.PossibleMergesCtx(context.Background()); err != nil {
				t.Fatal(err)
			}
			if _, err := r.CertainMergesCtx(context.Background()); err != nil {
				t.Fatal(err)
			}
			return calls.Load()
		}
		mono, sharded := resolve(false), resolve(true)
		t.Logf("%d entities, %d constants: monolithic %d metric calls, sharded %d",
			entities, ds.DB.Interner().Size(), mono, sharded)
		if sharded > mono {
			t.Errorf("%d entities: sharded resolution made %d metric calls, monolithic %d",
				entities, sharded, mono)
		}
	}
}

// clashInstance has TestShardExistenceDefers's fallback shape: comps
// components of k entities sharing a key, each with a p-typed and an
// n-typed entity, and a soft rule comparing names that are also
// mergeable entity ids, so the lattice top is inconsistent and clashes
// at a similarity position.
func clashInstance(t testing.TB, comps, k int) (*db.Database, *rules.Spec, *sim.Registry) {
	t.Helper()
	s := db.NewSchema()
	s.MustAdd("A", "id", "key")
	s.MustAdd("T", "id", "ty")
	s.MustAdd("N", "id", "name")
	d := db.New(s, nil)
	for i := 0; i < comps; i++ {
		for j := 0; j < k; j++ {
			d.MustInsert("A", fmt.Sprintf("e%d_%d", i, j), fmt.Sprintf("k%d", i))
		}
		d.MustInsert("T", fmt.Sprintf("e%d_0", i), "p")
		d.MustInsert("T", fmt.Sprintf("e%d_1", i), "n")
		d.MustInsert("N", fmt.Sprintf("f%d", i), fmt.Sprintf("e%d_2", i))
	}
	reg := sim.NewRegistry(sim.NewTable("approx"))
	spec, err := rules.ParseSpec(`soft s: A(x,k), A(y,k) ~> EQ(x,y).
		soft s2: N(x,n), N(y,m), approx(n,m) ~> EQ(x,y).
		denial d: T(x,t), T(x,t2), t != t2.`, s, d.Interner(), reg)
	if err != nil {
		t.Fatal(err)
	}
	return d, spec, reg
}

// TestShardDifferentialClash: an instance whose top clashes at a
// similarity position is solved whole, as one shard, and answers every
// surface, explanations included, like the monolithic engine.
func TestShardDifferentialClash(t *testing.T) {
	d, spec, reg := clashInstance(t, 3, 4)
	mono, err := New(d, spec, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := NewSnapshot(d, spec, reg, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertShardedEquals(t, "clash 3x4", mono, snap)
	st, err := snap.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Monolithic {
		t.Fatalf("stats %+v: the clashing top did not fall back to a whole solve", st)
	}
}

// randomClashInstance draws an instance built to reach the whole-solve
// fallback, which randomInstance never does: components of 3-4
// entities sharing a key, component 0 holding a p-typed and an n-typed
// entity (so the top violates the denial), and names that are entity
// ids, so the top merges a constant at a similarity position. Types,
// names, the approx pairs, a linking relation and the denial's form
// are random.
func randomClashInstance(t testing.TB, rng *rand.Rand) (*db.Database, *rules.Spec, *sim.Registry) {
	t.Helper()
	s := db.NewSchema()
	s.MustAdd("A", "id", "key")
	s.MustAdd("T", "id", "ty")
	s.MustAdd("N", "id", "name")
	s.MustAdd("R", "a", "b")
	d := db.New(s, nil)
	var ents []string
	comps := 1 + rng.Intn(3)
	for i := 0; i < comps; i++ {
		k := 3 + rng.Intn(2)
		for j := 0; j < k; j++ {
			e := fmt.Sprintf("e%d_%d", i, j)
			ents = append(ents, e)
			d.MustInsert("A", e, fmt.Sprintf("k%d", i))
		}
		if i == 0 {
			d.MustInsert("T", "e0_0", "p")
			d.MustInsert("T", "e0_1", "n")
		} else if rng.Intn(2) == 0 {
			d.MustInsert("T", fmt.Sprintf("e%d_%d", i, rng.Intn(k)), "p")
			d.MustInsert("T", fmt.Sprintf("e%d_%d", i, rng.Intn(k)), "n")
		}
	}
	d.MustInsert("N", "f0", fmt.Sprintf("e0_%d", rng.Intn(3)))
	for i := 1; i < 1+rng.Intn(3); i++ {
		d.MustInsert("N", fmt.Sprintf("f%d", i), ents[rng.Intn(len(ents))])
	}
	tbl := sim.NewTable("approx")
	for i := rng.Intn(4); i > 0; i-- {
		tbl.Add(ents[rng.Intn(len(ents))], ents[rng.Intn(len(ents))])
	}
	for i := rng.Intn(3); i > 0; i-- {
		d.MustInsert("R", fmt.Sprintf("f%d", rng.Intn(3)), fmt.Sprintf("f%d", rng.Intn(3)))
	}
	src := `soft s: A(x,k), A(y,k) ~> EQ(x,y).
		soft s2: N(x,n), N(y,m), approx(n,m) ~> EQ(x,y).
		soft s3: R(x,y) ~> EQ(x,y).`
	if rng.Intn(2) == 0 {
		src += "\ndenial d: T(x,t), T(x,t2), t != t2."
	} else {
		src += "\ndenial d: T(x,\"p\"), T(x,\"n\")."
	}
	reg := sim.NewRegistry(tbl)
	spec, err := rules.ParseSpec(src, s, d.Interner(), reg)
	if err != nil {
		t.Fatal(err)
	}
	return d, spec, reg
}

// TestShardDifferentialRandomClash: random instances whose top clashes
// at a similarity position each fall back to the whole solve and
// answer every surface like the monolithic engine, under one to three
// workers.
func TestShardDifferentialRandomClash(t *testing.T) {
	rng := rand.New(rand.NewSource(2829))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		d, spec, reg := randomClashInstance(t, rng)
		mono, err := New(d, spec, reg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		par := 1 + trial%3
		snap, err := NewSnapshot(d, spec, reg, Options{Parallelism: par}, 0)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial %d (par %d)", trial, par)
		st, err := snap.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if !st.Monolithic {
			t.Fatalf("%s: stats %+v, the instance did not fall back to a whole solve", label, st)
		}
		assertShardedEquals(t, label, mono, snap)
	}
}

// TestShardFallbackResolvesOnce: an instance solved whole walks its
// lattice once, on its first result call; every later call of every
// result method reads the recorded shard and explores no state.
func TestShardFallbackResolvesOnce(t *testing.T) {
	ctx := context.Background()
	d, spec, reg := clashInstance(t, 3, 4)
	q, err := rules.ParseQuery(`(x) : T(x,"p")`, d.Schema(), d.Interner(), reg)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRegistry()
	snap, err := NewSnapshot(d, spec, reg, Options{Parallelism: 1, Recorder: rec}, 0)
	if err != nil {
		t.Fatal(err)
	}
	states := func() int64 { return rec.Snapshot().Counter(obs.CoreSearchStates) }
	possible, err := snap.PossibleMergesCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	once := states()
	if once == 0 {
		t.Fatal("the first result call explored no state")
	}
	for i := 0; i < 3; i++ {
		if _, err := snap.CertainMergesCtx(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := snap.PossibleMergesCtx(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := snap.MaximalSolutionsCtx(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := snap.CertainAnswersCtx(ctx, q); err != nil {
			t.Fatal(err)
		}
		if _, err := snap.PossibleAnswersCtx(ctx, q); err != nil {
			t.Fatal(err)
		}
		if _, err := snap.ExplainMergesCtx(ctx, possible); err != nil {
			t.Fatal(err)
		}
		if got := states(); got != once {
			t.Fatalf("round %d: %d states explored, %d after the first call", i+1, got, once)
		}
	}
	t.Logf("the whole solve explored %d states", once)
	st, err := snap.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Monolithic {
		t.Fatalf("stats %+v: no fallback", st)
	}
	if n := snap.TouchedShards(map[db.Const]bool{possible[0].A: true}); n != -1 {
		t.Fatalf("TouchedShards = %d on a whole solve, want -1", n)
	}
}

// TestShardExistenceDefers: existence does not resolve the instance
// when a cheaper exact decision exists. Each instance has four
// components of five entities sharing a key; the key rule would merge
// a p-typed with an n-typed entity, so every component has 2^3 maximal
// solutions and the top is inconsistent. A restricted spec is decided
// by Theorem 8 without resolving; when the instance falls back to a
// monolithic solve, the monolithic search stops at its first solution,
// where enumerating the 8^4 maximal solutions would exceed the budget.
func TestShardExistenceDefers(t *testing.T) {
	const comps, k = 4, 5
	for _, fallback := range []bool{false, true} {
		s := db.NewSchema()
		s.MustAdd("A", "id", "key")
		s.MustAdd("T", "id", "ty")
		s.MustAdd("N", "id", "name")
		d := db.New(s, nil)
		for i := 0; i < comps; i++ {
			for j := 0; j < k; j++ {
				d.MustInsert("A", fmt.Sprintf("e%d_%d", i, j), fmt.Sprintf("k%d", i))
			}
			d.MustInsert("T", fmt.Sprintf("e%d_0", i), "p")
			d.MustInsert("T", fmt.Sprintf("e%d_1", i), "n")
			d.MustInsert("N", fmt.Sprintf("f%d", i), fmt.Sprintf("e%d_2", i))
		}
		src := `soft s: A(x,k), A(y,k) ~> EQ(x,y).
			denial d: T(x,"p"), T(x,"n").`
		if fallback {
			// s2 compares names that are also mergeable entity ids, a
			// configuration the coupling analysis does not shard.
			src = `soft s: A(x,k), A(y,k) ~> EQ(x,y).
				soft s2: N(x,n), N(y,m), approx(n,m) ~> EQ(x,y).
				denial d: T(x,t), T(x,t2), t != t2.`
		}
		reg := sim.NewRegistry(sim.NewTable("approx"))
		spec, err := rules.ParseSpec(src, s, d.Interner(), reg)
		if err != nil {
			t.Fatal(err)
		}
		if spec.IsRestricted() == fallback {
			t.Fatalf("fallback=%v: restricted %v", fallback, spec.IsRestricted())
		}
		opts := Options{MaxStates: 2000, Parallelism: 1}
		mono, err := New(d, spec, reg, opts)
		if err != nil {
			t.Fatal(err)
		}
		mw, mok, err := mono.ExistenceCtx(context.Background())
		if err != nil || !mok {
			t.Fatalf("fallback=%v: monolithic existence %v, %v", fallback, mok, err)
		}
		se, err := NewSnapshot(d, spec, reg, opts, 0)
		if err != nil {
			t.Fatal(err)
		}
		sw, sok, err := se.ExistenceCtx(context.Background())
		if err != nil || !sok {
			t.Fatalf("fallback=%v: sharded existence %v, %v", fallback, sok, err)
		}
		if sw.Key() != mw.Key() {
			t.Fatalf("fallback=%v: witness %v, want the monolithic %v", fallback, sw, mw)
		}
		if !fallback {
			if se.Resolved() {
				t.Fatal("restricted spec: existence resolved the instance")
			}
			continue
		}
		st, err := se.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if !st.Monolithic {
			t.Fatal("instance did not fall back to a monolithic solve")
		}
	}
}
