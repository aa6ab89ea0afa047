package core

// mutable_test.go is the streaming differential guarantee: after any
// sequence of random insert/retract batches, an epoch snapshot must be
// byte-identical — on certain merges, possible merges, maximal
// solutions, existence, query answers and merge explanations — to a
// monolithic engine over a database rebuilt from scratch with the same
// facts. Snapshots must also be stable: readers holding an older epoch
// keep getting its answers while later batches apply (exercised with
// goroutines, so the -race run covers the single-writer/multi-reader
// contract).

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/fixtures"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/workload"
)

// rebuildFromSnapshot builds the oracle: a from-scratch database with
// exactly the snapshot's facts under a sequential monolithic engine.
func rebuildFromSnapshot(t *testing.T, snap *EpochSnapshot, spec *rules.Spec, sims *sim.Registry) *Engine {
	t.Helper()
	eng, err := New(rebuildDB(t, snap), spec, sims, Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("oracle engine: %v", err)
	}
	return eng
}

// rebuildDB builds a from-scratch database with exactly the snapshot's
// facts (interner cloned so constant ids align).
func rebuildDB(t *testing.T, snap *EpochSnapshot) *db.Database {
	t.Helper()
	d := snap.DB()
	in := d.Interner()
	nd := db.New(d.Schema(), in.Clone())
	for _, f := range d.Facts() {
		names := make([]string, len(f.Args))
		for i, c := range f.Args {
			names[i] = in.Name(c)
		}
		nd.MustInsert(f.Rel, names...)
	}
	if nd.Fingerprint() != snap.Fingerprint() {
		t.Fatalf("rebuilt fingerprint %s != snapshot fingerprint %s", nd.Fingerprint(), snap.Fingerprint())
	}
	return nd
}

// assertEpochEquals compares every result surface of the snapshot with
// the rebuilt-from-scratch oracle. queries may be nil to skip the
// answer and explanation surfaces (each answer or explanation call is a
// full enumeration on both sides, so the long differential samples them
// rather than paying the extra enumerations every epoch).
func assertEpochEquals(t *testing.T, label string, oracle *Engine, snap *EpochSnapshot, queries []*cq.CQ) {
	t.Helper()
	ctx := context.Background()

	oc, err := oracle.CertainMergesCtx(context.Background())
	if err != nil {
		t.Fatalf("%s: oracle certain: %v", label, err)
	}
	sc, err := snap.CertainMergesCtx(ctx)
	if err != nil {
		t.Fatalf("%s: snapshot certain: %v", label, err)
	}
	if fmt.Sprintf("%v", oc) != fmt.Sprintf("%v", sc) || (oc == nil) != (sc == nil) {
		t.Fatalf("%s: certain merges diverge:\n  oracle   %v\n  snapshot %v", label, oc, sc)
	}

	op, err := oracle.PossibleMergesCtx(context.Background())
	if err != nil {
		t.Fatalf("%s: oracle possible: %v", label, err)
	}
	sp, err := snap.PossibleMergesCtx(ctx)
	if err != nil {
		t.Fatalf("%s: snapshot possible: %v", label, err)
	}
	if fmt.Sprintf("%v", op) != fmt.Sprintf("%v", sp) || (op == nil) != (sp == nil) {
		t.Fatalf("%s: possible merges diverge:\n  oracle   %v\n  snapshot %v", label, op, sp)
	}

	om, err := oracle.MaximalSolutionsCtx(context.Background())
	if err != nil {
		t.Fatalf("%s: oracle maximal: %v", label, err)
	}
	sm, err := snap.MaximalSolutionsCtx(ctx)
	if err != nil {
		t.Fatalf("%s: snapshot maximal: %v", label, err)
	}
	if len(om) != len(sm) {
		t.Fatalf("%s: %d oracle vs %d snapshot maximal solutions", label, len(om), len(sm))
	}
	for i := range om {
		if om[i].Key() != sm[i].Key() {
			t.Fatalf("%s: maximal solution %d diverges:\n  oracle   %v\n  snapshot %v",
				label, i, om[i], sm[i])
		}
	}

	ow, ook, err := oracle.ExistenceCtx(context.Background())
	if err != nil {
		t.Fatalf("%s: oracle existence: %v", label, err)
	}
	sw, sok, err := snap.ExistenceCtx(ctx)
	if err != nil {
		t.Fatalf("%s: snapshot existence: %v", label, err)
	}
	if ook != sok {
		t.Fatalf("%s: existence %v (oracle) vs %v (snapshot)", label, ook, sok)
	}
	// The snapshot's witness is pinned: Theorem 8's hard closure on a
	// restricted spec, the first maximal solution otherwise.
	if sok {
		want := om[0]
		if oracle.Spec().IsRestricted() {
			want = ow
		}
		if sw.Key() != want.Key() {
			t.Fatalf("%s: existence witness %v, want %v", label, sw, want)
		}
	}

	if queries != nil {
		assertAnswersEqual(t, label, engineAnswers{oracle}, snap, queries, op)
	}
}

// answerer is the query-answer and explanation surface of a reference
// resolution: the monolithic oracle, or a snapshot rebuilt from scratch.
type answerer interface {
	CertainAnswersCtx(ctx context.Context, q *cq.CQ) ([][]db.Const, error)
	PossibleAnswersCtx(ctx context.Context, q *cq.CQ) ([][]db.Const, error)
	ExplainMergesCtx(ctx context.Context, pairs []eqrel.Pair) ([]*MergeExplanation, error)
}

// engineAnswers adapts the monolithic oracle to answerer, explaining
// one pair at a time.
type engineAnswers struct{ *Engine }

func (e engineAnswers) ExplainMergesCtx(ctx context.Context, pairs []eqrel.Pair) ([]*MergeExplanation, error) {
	out := make([]*MergeExplanation, len(pairs))
	for i, p := range pairs {
		x, err := e.ExplainMergeCtx(ctx, p.A, p.B)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", p, err)
		}
		out[i] = x
	}
	return out, nil
}

// assertAnswersEqual compares the snapshot's certain and possible
// answers to each query, and its explanation of each pair, with the
// reference's.
func assertAnswersEqual(t *testing.T, label string, ref answerer, snap *EpochSnapshot, queries []*cq.CQ, pairs []eqrel.Pair) {
	t.Helper()
	ctx := context.Background()
	for qi, q := range queries {
		rca, err := ref.CertainAnswersCtx(ctx, q)
		if err != nil {
			t.Fatalf("%s: reference certain answers %d: %v", label, qi, err)
		}
		sca, err := snap.CertainAnswersCtx(ctx, q)
		if err != nil {
			t.Fatalf("%s: snapshot certain answers %d: %v", label, qi, err)
		}
		if fmt.Sprintf("%v", rca) != fmt.Sprintf("%v", sca) {
			t.Fatalf("%s: certain answers %d diverge:\n  reference %v\n  snapshot  %v", label, qi, rca, sca)
		}
		rpa, err := ref.PossibleAnswersCtx(ctx, q)
		if err != nil {
			t.Fatalf("%s: reference possible answers %d: %v", label, qi, err)
		}
		spa, err := snap.PossibleAnswersCtx(ctx, q)
		if err != nil {
			t.Fatalf("%s: snapshot possible answers %d: %v", label, qi, err)
		}
		if fmt.Sprintf("%v", rpa) != fmt.Sprintf("%v", spa) {
			t.Fatalf("%s: possible answers %d diverge:\n  reference %v\n  snapshot  %v", label, qi, rpa, spa)
		}
	}
	in := snap.DB().Interner()
	rxs, err := ref.ExplainMergesCtx(ctx, pairs)
	if err != nil {
		t.Fatalf("%s: reference explain: %v", label, err)
	}
	sxs, err := snap.ExplainMergesCtx(ctx, pairs)
	if err != nil {
		t.Fatalf("%s: snapshot explain: %v", label, err)
	}
	for i, p := range pairs {
		if rx, sx := rxs[i].Format(in), sxs[i].Format(in); rx != sx {
			t.Fatalf("%s: explanations of %v diverge:\n  reference %s\n  snapshot  %s", label, p, rx, sx)
		}
	}
}

// bibQueries parses constant-free queries over the shared bibliographic
// schema (Figure 1 and the workload generator use the same one), one
// of them with an inequality atom.
func bibQueries(t *testing.T, sch *db.Schema) []*cq.CQ {
	t.Helper()
	texts := []string{
		`(x, y) : CorrAuth(p, x), CorrAuth(p, y)`,
		`(a) : Chair(c, a)`,
		`(x, y) : CorrAuth(p, x), CorrAuth(p, y), x != y`,
	}
	out := make([]*cq.CQ, len(texts))
	for i, src := range texts {
		q, err := rules.ParseQuery(src, sch, nil, nil)
		if err != nil {
			t.Fatalf("query %q: %v", src, err)
		}
		out[i] = q
	}
	return out
}

// randomBatch builds a batch against the current database: retract up
// to two present facts, insert one or two facts — resurrections of
// previously retracted facts, or near-duplicates of a present fact
// with one column replaced (usually by a fresh constant, sometimes
// recombined within the column). Edits are structure-preserving on
// purpose: independent per-column resampling quickly cross-links every
// cluster into one giant component, whose maximal-solution space is
// exponential and would turn the differential into a stress test of
// enumeration rather than of incrementality.
func randomBatch(rng *rand.Rand, d *db.Database, retracted *[]db.FactSpec, fresh *int) Batch {
	facts := d.Facts()
	in := d.Interner()
	render := func(f db.Fact) db.FactSpec {
		args := make([]string, len(f.Args))
		for i, c := range f.Args {
			args[i] = in.Name(c)
		}
		return db.FactSpec{Rel: f.Rel, Args: args}
	}
	var b Batch
	for k := 0; k < rng.Intn(3); k++ {
		if len(facts) == 0 {
			break
		}
		fs := render(facts[rng.Intn(len(facts))])
		b.Retract = append(b.Retract, fs)
		*retracted = append(*retracted, fs)
	}
	for k := 0; k < 1+rng.Intn(2); k++ {
		if len(*retracted) > 0 && rng.Float64() < 0.5 {
			b.Insert = append(b.Insert, (*retracted)[rng.Intn(len(*retracted))])
			continue
		}
		if len(facts) == 0 {
			continue
		}
		src := facts[rng.Intn(len(facts))]
		fs := render(src)
		i := rng.Intn(len(fs.Args))
		if rng.Float64() < 0.85 {
			*fresh++
			fs.Args[i] = fmt.Sprintf("z%d", *fresh)
		} else {
			var pool []string
			for _, f := range facts {
				if f.Rel == src.Rel {
					pool = append(pool, in.Name(f.Args[i]))
				}
			}
			fs.Args[i] = pool[rng.Intn(len(pool))]
		}
		b.Insert = append(b.Insert, fs)
	}
	return b
}

// runMutableDifferential drives one mutable session through steps
// random batches, checking each epoch against the oracle and spawning
// one concurrent reader per epoch that re-checks the held snapshot
// after later batches have applied.
func runMutableDifferential(t *testing.T, name string, m *MutableSession,
	spec *rules.Spec, sims *sim.Registry, queries []*cq.CQ, seed int64, steps int) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	fresh := 0
	var retractedPool []db.FactSpec

	var wg sync.WaitGroup
	var mu sync.Mutex
	var readerErrs []string

	// Epoch 0 first: the initial load must already agree.
	assertEpochEquals(t, name+" epoch 0", rebuildFromSnapshot(t, m.Snapshot(), spec, sims), m.Snapshot(), queries)

	for step := 0; step < steps; step++ {
		b := randomBatch(rng, m.Snapshot().DB(), &retractedPool, &fresh)
		res, snap, err := m.ApplyDurable(b, nil)
		if err != nil {
			t.Fatalf("%s step %d: apply: %v", name, step, err)
		}
		if res.Epoch != snap.Epoch() || res.Epoch != uint64(step+1) {
			t.Fatalf("%s step %d: epoch %d (result %d), want %d", name, step, snap.Epoch(), res.Epoch, step+1)
		}
		if res.Fingerprint != snap.Fingerprint() {
			t.Fatalf("%s step %d: result fingerprint %s != snapshot %s", name, step, res.Fingerprint, snap.Fingerprint())
		}
		label := fmt.Sprintf("%s epoch %d", name, res.Epoch)
		qs := queries
		if step%3 != 0 {
			qs = nil
		}
		assertEpochEquals(t, label, rebuildFromSnapshot(t, snap, spec, sims), snap, qs)

		// Reader isolation: capture this epoch's merge sets now, then
		// re-read them from another goroutine while later batches apply.
		wantC, err := snap.CertainMergesCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wantP, err := snap.PossibleMergesCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wc, wp := fmt.Sprintf("%v", wantC), fmt.Sprintf("%v", wantP)
		wg.Add(1)
		go func(snap *EpochSnapshot, label, wc, wp string) {
			defer wg.Done()
			c, err := snap.CertainMergesCtx(ctx)
			if err == nil && fmt.Sprintf("%v", c) != wc {
				err = fmt.Errorf("certain merges drifted to %v, want %s", c, wc)
			}
			var p interface{}
			if err == nil {
				p, err = snap.PossibleMergesCtx(ctx)
				if err == nil && fmt.Sprintf("%v", p) != wp {
					err = fmt.Errorf("possible merges drifted to %v, want %s", p, wp)
				}
			}
			if err != nil {
				mu.Lock()
				readerErrs = append(readerErrs, fmt.Sprintf("%s: %v", label, err))
				mu.Unlock()
			}
		}(snap, label, wc, wp)
	}
	wg.Wait()
	for _, e := range readerErrs {
		t.Error(e)
	}
}

// TestMutableDifferentialSharded: ≥100 random batch sequences across
// Figure 1 and a generated workload instance, sharded epochs vs
// rebuild-from-scratch oracle, with concurrent readers per epoch.
func TestMutableDifferentialSharded(t *testing.T) {
	steps := 60
	if testing.Short() {
		steps = 15
	}

	t.Run("figure1", func(t *testing.T) {
		f := fixtures.New()
		m, err := NewMutable(f.DB, f.Spec, f.Sims, Options{Parallelism: 2}, 0)
		if err != nil {
			t.Fatal(err)
		}
		runMutableDifferential(t, "figure1", m, f.Spec, f.Sims, bibQueries(t, f.Schema), 101, steps)
	})
	t.Run("workload", func(t *testing.T) {
		// Below the default scale: the differential pays a full
		// rebuild-from-scratch enumeration per epoch, and per-epoch cost
		// grows with the duplicate-cluster count.
		cfg := workload.Config{Seed: 19, Authors: 8, Papers: 10, Conferences: 3,
			DupRate: 0.4, TypoRate: 0.7, DirtyWrote: 0.3}
		ds, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mw, err := NewMutable(ds.DB, ds.Spec, ds.Sims, Options{Parallelism: 2}, 0)
		if err != nil {
			t.Fatal(err)
		}
		runMutableDifferential(t, "workload", mw, ds.Spec, ds.Sims, bibQueries(t, ds.Schema), 202, steps)
	})
}

// TestMutableNoOpBatch: a batch that changes nothing advances the epoch
// and resolves it to the same answers and the same partition: shards,
// stitch rounds and solves.
func TestMutableNoOpBatch(t *testing.T) {
	ctx := context.Background()
	f := fixtures.New()
	m, err := NewMutable(f.DB, f.Spec, f.Sims, Options{Parallelism: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap0 := m.Snapshot()
	if _, err := snap0.PossibleMergesCtx(ctx); err != nil {
		t.Fatal(err)
	}
	st0, err := snap0.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st0.Monolithic {
		t.Fatal("figure 1 unexpectedly fell back to a monolithic solve")
	}
	if st0.Solves == 0 {
		t.Fatal("epoch 0: no shard solved; figure 1's top is inconsistent")
	}

	res, snap1, err := m.ApplyDurable(Batch{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || res.Inserted != 0 || res.Retracted != 0 {
		t.Fatalf("no-op apply: %+v", res)
	}
	if res.Fingerprint != snap0.Fingerprint() {
		t.Fatal("no-op batch changed the fingerprint")
	}
	if res.DirtyShards != 0 {
		t.Fatalf("no-op batch dirtied %d shards", res.DirtyShards)
	}
	var want string
	for _, s := range []*EpochSnapshot{snap0, snap1} {
		p, err := s.PossibleMergesCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.CertainMergesCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := s.MaximalSolutionsCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		answers := fmt.Sprint(p, c)
		for _, sol := range ms {
			answers += ";" + sol.Key()
		}
		if s == snap0 {
			want = answers
		} else if answers != want {
			t.Fatalf("no-op epoch answers %s, epoch 0 answered %s", answers, want)
		}
	}
	st1, err := snap1.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", st1) != fmt.Sprintf("%+v", st0) {
		t.Fatalf("no-op epoch stats %+v, epoch 0 %+v", st1, st0)
	}
}

// figure1Copies builds one instance holding a renamed copy of Figure 1
// per prefix: every constant of copy k is renamed prefixes[k]+name, and
// the similarity table relates only names within one copy, so the
// copies share no constant and never couple.
func figure1Copies(t *testing.T, prefixes ...string) (*db.Database, *rules.Spec, *sim.Registry) {
	t.Helper()
	f := fixtures.New()
	fin := f.DB.Interner()
	d := db.New(f.Schema, nil)
	approx := sim.NewTable("approx")
	similar := [][2]string{
		{fixtures.E1, fixtures.E2}, {fixtures.E2, fixtures.E3}, {fixtures.E6, fixtures.E7},
		{fixtures.T2, fixtures.T3}, {fixtures.T4, fixtures.T5},
		{fixtures.N2, fixtures.N3}, {fixtures.N3, fixtures.N4},
	}
	for _, pre := range prefixes {
		for _, fact := range f.DB.Facts() {
			names := make([]string, len(fact.Args))
			for i, c := range fact.Args {
				names[i] = pre + fin.Name(c)
			}
			d.MustInsert(fact.Rel, names...)
		}
		for _, p := range similar {
			approx.Add(pre+p[0], pre+p[1])
		}
	}
	reg := sim.NewRegistry(approx)
	spec, err := rules.ParseSpec(fixtures.SpecText, f.Schema, d.Interner(), reg)
	if err != nil {
		t.Fatal(err)
	}
	return d, spec, reg
}

// TestMutableDirtyScopedResolve: a batch touching one component
// resolves to the oracle's answers, and DirtyShards reports the touched
// component count. The instance is two disjoint copies of Figure 1, so
// its lattice top is inconsistent and every epoch runs the stitch over
// at least two shards.
func TestMutableDirtyScopedResolve(t *testing.T) {
	ctx := context.Background()
	d, spec, sims := figure1Copies(t, "x.", "y.")
	m, err := NewMutable(d, spec, sims, Options{Parallelism: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot().PossibleMergesCtx(ctx); err != nil {
		t.Fatal(err)
	}
	st0, err := m.Snapshot().Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st0.Shards < 2 || st0.Monolithic {
		t.Fatalf("epoch 0: %d shards (monolithic fallback %v), want at least one per copy", st0.Shards, st0.Monolithic)
	}

	// Move copy x's a6 to a different institution: breaks the sigma2
	// support of its a6~a7 merge without touching copy y.
	res, snap, err := m.ApplyDurable(Batch{
		Retract: []db.FactSpec{{Rel: "Author", Args: []string{"x.a6", "x." + fixtures.E6, "x.Tokyo"}}},
		Insert:  []db.FactSpec{{Rel: "Author", Args: []string{"x.a6", "x." + fixtures.E6, "x.Osaka"}}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 1 || res.Retracted != 1 {
		t.Fatalf("apply counts: %+v", res)
	}
	if res.DirtyShards != 1 {
		t.Fatalf("DirtyShards = %d with %d shards, want 1", res.DirtyShards, st0.Shards)
	}
	if _, err := snap.PossibleMergesCtx(ctx); err != nil {
		t.Fatal(err)
	}

	// The oracle agrees on the changed instance: the monolithic engine
	// on merges, maximal solutions and existence. Its query answers and
	// explanations each walk the two copies' product lattice (together
	// over a minute under -race), so those surfaces are
	// checked against a sharded session rebuilt from scratch, which
	// shares no epoch lineage with this one.
	assertEpochEquals(t, "dirty-scope", rebuildFromSnapshot(t, snap, spec, sims), snap, nil)
	fresh, err := NewMutable(rebuildDB(t, snap), spec, sims, Options{Parallelism: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	possible, err := snap.PossibleMergesCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertAnswersEqual(t, "dirty-scope", fresh.Snapshot(), snap, bibQueries(t, d.Schema()), possible)
}

// TestMutableTopFlips: one-fact Author retractions and re-insertions
// flip the lattice top of a generated instance between consistent and
// inconsistent, so successive epochs alternate between the
// top-answered path and the top-seeded stitch. Every epoch must equal a
// fresh sharded rebuild and the monolithic oracle.
func TestMutableTopFlips(t *testing.T) {
	ctx := context.Background()
	cfg := workload.DefaultScaleConfig(5, 100)
	cfg.MaxDup = 1
	ds, err := workload.GenerateScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMutable(ds.DB, ds.Spec, ds.Sims, Options{Parallelism: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Retracting Author tuples 0–10 in order makes the top inconsistent
	// at the 11th; re-inserting that tuple flips it back, and
	// retracting it again flips it once more.
	in := ds.DB.Interner()
	var authors []db.FactSpec
	for _, tu := range ds.DB.Tuples("Author")[:11] {
		args := make([]string, len(tu))
		for i, c := range tu {
			args[i] = in.Name(c)
		}
		authors = append(authors, db.FactSpec{Rel: "Author", Args: args})
	}
	var batches []Batch
	for _, f := range authors {
		batches = append(batches, Batch{Retract: []db.FactSpec{f}})
	}
	last := authors[len(authors)-1]
	batches = append(batches, Batch{Insert: []db.FactSpec{last}}, Batch{Retract: []db.FactSpec{last}})

	byRounds := make(map[int]int) // stitch rounds -> epochs
	check := func(snap *EpochSnapshot) {
		label := fmt.Sprintf("epoch %d", snap.Epoch())
		st, err := snap.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Monolithic || st.Rounds > 1 {
			t.Fatalf("%s: %d stitch rounds, monolithic fallback %v", label, st.Rounds, st.Monolithic)
		}
		byRounds[st.Rounds]++
		fresh, err := NewSnapshot(snap.DB(), ds.Spec, ds.Sims, Options{Parallelism: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []struct {
			name string
			get  func(resolution) (any, error)
		}{
			{"certain", func(r resolution) (any, error) { return r.CertainMergesCtx(ctx) }},
			{"possible", func(r resolution) (any, error) { return r.PossibleMergesCtx(ctx) }},
			{"maximal", func(r resolution) (any, error) { return r.MaximalSolutionsCtx(ctx) }},
		} {
			got, err := q.get(snap)
			if err != nil {
				t.Fatalf("%s: snapshot %s: %v", label, q.name, err)
			}
			want, err := q.get(fresh)
			if err != nil {
				t.Fatalf("%s: rebuild %s: %v", label, q.name, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: %s diverges from a fresh rebuild:\n  incremental %v\n  rebuild     %v", label, q.name, got, want)
			}
		}
		assertEpochEquals(t, label, rebuildFromSnapshot(t, snap, ds.Spec, ds.Sims), snap, nil)
	}
	check(m.Snapshot())
	for _, b := range batches {
		_, snap, err := m.ApplyDurable(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		check(snap)
	}
	t.Logf("epochs by stitch rounds: %v", byRounds)
	if byRounds[0] == 0 || byRounds[1] == 0 {
		t.Fatalf("epochs by stitch rounds %v: want both top-answered (0) and stitched (1) epochs", byRounds)
	}
}

// TestMutableReplayMatchesFresh replays a write stream like the
// write-mixed benchmark's on small generated instances (MaxDup 1): each
// write flips one of a fixed set of Author tuples, chosen by the
// binary-reflected Gray code of the write's index, so the database never
// returns to an earlier state. Every epoch's possible merges, certain
// merges and maximal solutions must equal both a fresh snapshot
// over the same database and the monolithic engine, and at least one
// epoch must have an inconsistent top, so the stitch is exercised.
func TestMutableReplayMatchesFresh(t *testing.T) {
	const tuples, writes = 8, 40
	ctx := context.Background()
	stitched := 0
	seeds := []int64{1, 2, 3, 4}
	for _, seed := range seeds {
		cfg := workload.DefaultScaleConfig(seed, 60)
		cfg.MaxDup = 1
		ds, err := workload.GenerateScale(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMutable(ds.DB, ds.Spec, ds.Sims, Options{Parallelism: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		in := ds.DB.Interner()
		all := ds.DB.Tuples("Author")
		var set []db.FactSpec
		for _, i := range rand.New(rand.NewSource(seed)).Perm(len(all))[:tuples] {
			args := make([]string, len(all[i]))
			for j, c := range all[i] {
				args[j] = in.Name(c)
			}
			set = append(set, db.FactSpec{Rel: "Author", Args: args})
		}
		check := func(snap *EpochSnapshot) {
			label := fmt.Sprintf("seed %d epoch %d", seed, snap.Epoch())
			st, err := snap.Stats()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			stitched += st.Rounds
			fresh, err := NewSnapshot(snap.DB(), ds.Spec, ds.Sims, Options{Parallelism: 1}, 0)
			if err != nil {
				t.Fatal(err)
			}
			mono, err := New(snap.DB(), ds.Spec, ds.Sims, Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []struct {
				name string
				get  func(resolution) (any, error)
			}{
				{"possible", func(r resolution) (any, error) { return r.PossibleMergesCtx(ctx) }},
				{"certain", func(r resolution) (any, error) { return r.CertainMergesCtx(ctx) }},
				{"maximal", func(r resolution) (any, error) {
					sols, err := r.MaximalSolutionsCtx(ctx)
					keys := make([]string, len(sols))
					for i, E := range sols {
						keys[i] = E.Key()
					}
					return keys, err
				}},
			} {
				got, err := q.get(snap)
				if err != nil {
					t.Fatalf("%s: snapshot %s: %v", label, q.name, err)
				}
				for _, ref := range []struct {
					name string
					r    resolution
				}{{"a fresh snapshot", fresh}, {"the monolithic engine", mono}} {
					want, err := q.get(ref.r)
					if err != nil {
						t.Fatalf("%s: %s %s: %v", label, ref.name, q.name, err)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: %s diverges from %s:\n  replay %v\n  fresh  %v", label, q.name, ref.name, got, want)
					}
				}
			}
		}
		check(m.Snapshot())
		for i := 0; i < writes; i++ {
			k := bits.TrailingZeros(uint(i+1)) % tuples
			b := Batch{Insert: []db.FactSpec{set[k]}}
			if gray := i ^ (i >> 1); gray>>k&1 == 0 {
				b = Batch{Retract: []db.FactSpec{set[k]}}
			}
			_, snap, err := m.ApplyDurable(b, nil)
			if err != nil {
				t.Fatal(err)
			}
			check(snap)
		}
	}
	t.Logf("%d of %d epochs stitched", stitched, len(seeds)*(writes+1))
	if stitched == 0 {
		t.Fatal("no epoch had an inconsistent top: the stitch went unexercised")
	}
}

// TestMutableApplyRejects: a validation error rejects the batch whole
// and leaves the current epoch in place.
func TestMutableApplyRejects(t *testing.T) {
	f := fixtures.New()
	m, err := NewMutable(f.DB, f.Spec, f.Sims, Options{Parallelism: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.ApplyDurable(Batch{Insert: []db.FactSpec{{Rel: "Nope", Args: []string{"x"}}}}, nil); err == nil {
		t.Fatal("undeclared relation accepted")
	}
	if _, _, err := m.ApplyDurable(Batch{Retract: []db.FactSpec{{Rel: "Chair", Args: []string{"only-one"}}}}, nil); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if got := m.Snapshot().Epoch(); got != 0 {
		t.Fatalf("rejected batches advanced the epoch to %d", got)
	}
}

// TestEpochsShareSimilarityMemo: every epoch of a lineage reads the
// session's one similarity memo, so once epoch 0 has resolved, an empty
// batch's epoch resolves without evaluating the metric again.
func TestEpochsShareSimilarityMemo(t *testing.T) {
	ctx := context.Background()
	ds, err := workload.GenerateScale(workload.DefaultScaleConfig(3, 300))
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	metric := func(a, b string) float64 {
		calls.Add(1)
		return sim.NormalizedLevenshtein(a, b)
	}
	sims := sim.NewRegistry(sim.Threshold("approx", metric, 0.82))
	m, err := NewMutable(ds.DB, ds.Spec, sims, Options{Parallelism: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot().PossibleMergesCtx(ctx); err != nil {
		t.Fatal(err)
	}
	cold := calls.Load()
	if cold == 0 {
		t.Fatal("epoch 0 resolved without evaluating the metric")
	}
	_, snap, err := m.ApplyDurable(Batch{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.PossibleMergesCtx(ctx); err != nil {
		t.Fatal(err)
	}
	if warm := calls.Load() - cold; warm != 0 {
		t.Errorf("epoch 1 made %d metric calls after epoch 0 made %d, want 0", warm, cold)
	}
}

// TestRetractedNamesKeepVerdicts: retracting facts never drops the
// memoized verdicts of the names they remove, however many names go, so
// a re-inserted name finds its verdicts still there. The first Author's
// institution has other Authors (about five per institution), so σ2
// compares its email with theirs; more than 64 other Authors go before
// it comes back.
func TestRetractedNamesKeepVerdicts(t *testing.T) {
	ctx := context.Background()
	ds, err := workload.GenerateScale(workload.DefaultScaleConfig(3, 300))
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	metric := func(a, b string) float64 {
		calls.Add(1)
		return sim.NormalizedLevenshtein(a, b)
	}
	sims := sim.NewRegistry(sim.Threshold("approx", metric, 0.82))
	m, err := NewMutable(ds.DB, ds.Spec, sims, Options{Parallelism: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(b Batch) {
		t.Helper()
		_, snap, err := m.ApplyDurable(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := snap.PossibleMergesCtx(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Snapshot().PossibleMergesCtx(ctx); err != nil {
		t.Fatal(err)
	}
	in := ds.DB.Interner()
	var authors []db.FactSpec
	for _, tu := range ds.DB.Tuples("Author") {
		authors = append(authors, db.FactSpec{Rel: "Author", Args: []string{in.Name(tu[0]), in.Name(tu[1]), in.Name(tu[2])}})
	}
	const others = 65
	if len(authors) <= others {
		t.Fatalf("%d Author tuples, want more than %d", len(authors), others)
	}
	resolve(Batch{Retract: authors[:1]})
	resolve(Batch{Retract: authors[len(authors)-others:]})
	before := calls.Load()
	resolve(Batch{Insert: authors[:1]})
	if n := calls.Load() - before; n != 0 {
		t.Errorf("re-inserting a retracted Author after %d others went made %d metric calls, want 0", others, n)
	}
}

// TestMutableConcurrentEpochResolves: snapshots of different epochs may
// resolve at the same time. Every batch inserts an Author whose email
// no epoch has seen, so each epoch's resolution computes fresh
// similarity verdicts; under -race this catches any unsynchronized
// memo tier shared between the epochs' engines.
func TestMutableConcurrentEpochResolves(t *testing.T) {
	ctx := context.Background()
	ds, err := workload.GenerateScale(workload.DefaultScaleConfig(7, 400))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMutable(ds.DB, ds.Spec, ds.Sims, Options{Parallelism: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := ds.DB.Interner()
	inst := in.Name(ds.DB.Tuples("Author")[0][2])
	snaps := []*EpochSnapshot{m.Snapshot()}
	for i := 0; i < 4; i++ {
		_, snap, err := m.ApplyDurable(Batch{Insert: []db.FactSpec{{Rel: "Author", Args: []string{
			fmt.Sprintf("fresh_a%d", i), fmt.Sprintf("never.seen.%d@%s.org", i, inst), inst}}}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	errs := make([]error, len(snaps))
	var wg sync.WaitGroup
	for i, snap := range snaps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = snap.PossibleMergesCtx(ctx)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
	}
}
