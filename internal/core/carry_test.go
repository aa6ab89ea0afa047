package core

// carry_test.go is the differential guarantee of the carried lattice
// top: after any batch, an epoch's top, carried from its predecessor's,
// must equal the top a fresh engine closes from the identity — the
// partition, its induced database, the consistency verdict — and the
// epoch must answer like a fresh snapshot.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/limits"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/workload"
)

// assertCarriedMatchesFresh compares snap's top and answers with a
// fresh snapshot over the same database, and reports whether the
// snapshot's top was carried.
func assertCarriedMatchesFresh(t testing.TB, label string, snap *EpochSnapshot, spec *rules.Spec, sims *sim.Registry) bool {
	t.Helper()
	ctx := context.Background()
	got, err := snap.latticeTop(ctx)
	if err != nil {
		t.Fatalf("%s: carried top: %v", label, err)
	}
	fresh, err := NewSnapshot(snap.DB(), spec, sims, Options{Parallelism: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.latticeTop(ctx)
	if err != nil {
		t.Fatalf("%s: fresh top: %v", label, err)
	}
	if !got.T.Equal(want.T) {
		t.Fatalf("%s: carried top (carried %v, %d re-closed)\n  %v\ndiffers from the fresh top\n  %v",
			label, snap.carried, snap.reclosed, got.T.Format(snap.DB().Interner()), want.T.Format(snap.DB().Interner()))
	}
	if !got.ind.Equal(want.ind) || !want.ind.Equal(got.ind) {
		t.Fatalf("%s: carried D_T\n%s\ndiffers from the fresh D_T\n%s", label, got.ind, want.ind)
	}
	if got.consistent != want.consistent || got.clash != want.clash {
		t.Fatalf("%s: carried top consistent %v clash %v, fresh %v %v", label, got.consistent, got.clash, want.consistent, want.clash)
	}
	if got.coupling != nil {
		full, err := fresh.couple(ctx, want)
		if err != nil {
			t.Fatalf("%s: fresh coupling: %v", label, err)
		}
		if why := couplingDiff(got.coupling, full); why != "" {
			t.Fatalf("%s: carried coupling differs from a full pass: %s", label, why)
		}
	} else if !got.consistent && !got.clash {
		t.Fatalf("%s: inconsistent top without a coupling", label)
	}
	gs, err := snap.Stats()
	if err != nil {
		t.Fatalf("%s: snapshot stats: %v", label, err)
	}
	ws, err := fresh.Stats()
	if err != nil {
		t.Fatalf("%s: fresh stats: %v", label, err)
	}
	if fmt.Sprint(gs) != fmt.Sprint(ws) {
		t.Fatalf("%s: shard stats diverge from a fresh snapshot:\n  carried %+v\n  fresh   %+v", label, gs, ws)
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
		g, err := q.get(snap)
		if err != nil {
			t.Fatalf("%s: snapshot %s: %v", label, q.name, err)
		}
		w, err := q.get(fresh)
		if err != nil {
			t.Fatalf("%s: fresh %s: %v", label, q.name, err)
		}
		if fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("%s: %s diverges from a fresh snapshot:\n  carried %v\n  fresh   %v", label, q.name, g, w)
		}
	}
	return snap.carried
}

// couplingDiff describes the first difference between two couplings,
// or returns "".
func couplingDiff(got, want *coupling) string {
	if got.trivial != want.trivial {
		return fmt.Sprintf("trivial violations %d, want %d", got.trivial, want.trivial)
	}
	if len(got.classes) != len(want.classes) {
		return fmt.Sprintf("%d anchor classes, want %d", len(got.classes), len(want.classes))
	}
	for r, w := range want.classes {
		g := got.classes[r]
		switch {
		case g == nil:
			return fmt.Sprintf("class %d missing", r)
		case g.violated != w.violated:
			return fmt.Sprintf("class %d violated %v, want %v", r, g.violated, w.violated)
		case !slices.Equal(g.support, w.support):
			return fmt.Sprintf("class %d support %v, want %v", r, g.support, w.support)
		case !slices.Equal(g.coupled, w.coupled):
			return fmt.Sprintf("class %d coupled %v, want %v", r, g.coupled, w.coupled)
		}
	}
	return ""
}

// runCarried applies steps random batches (up to two retractions and
// one or two insertions over every relation, fresh names included) and
// checks every epoch against a fresh engine. It returns how many epochs
// carried their top.
func runCarried(t testing.TB, label string, d *db.Database, spec *rules.Spec, sims *sim.Registry, seed int64, steps int) int {
	t.Helper()
	m, err := NewMutable(d, spec, sims, Options{Parallelism: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertCarriedMatchesFresh(t, label+" epoch 0", m.Snapshot(), spec, sims)
	rng := rand.New(rand.NewSource(seed))
	var retracted []db.FactSpec
	fresh, carried := 0, 0
	for step := 0; step < steps; step++ {
		b := randomBatch(rng, m.Snapshot().DB(), &retracted, &fresh)
		_, snap, err := m.ApplyDurable(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if assertCarriedMatchesFresh(t, fmt.Sprintf("%s epoch %d (%+v)", label, snap.Epoch(), b), snap, spec, sims) {
			carried++
		}
	}
	return carried
}

// TestCarriedTopMatchesFresh drives random multi-fact batches over every
// relation of the scale schema and of randomInstance, plus the three
// shapes a class-by-name count gets wrong: a retraction that reaches a
// class only through a body atom with no head variable, an inserted
// Author tuple that σ2 joins to a class member, and a batch interning a
// new name.
func TestCarriedTopMatchesFresh(t *testing.T) {
	steps := 30
	if testing.Short() {
		steps = 10
	}
	t.Run("scale", func(t *testing.T) {
		carried := 0
		for seed := int64(1); seed <= 3; seed++ {
			cfg := workload.DefaultScaleConfig(seed, 60)
			ds, err := workload.GenerateScale(cfg)
			if err != nil {
				t.Fatal(err)
			}
			carried += runCarried(t, fmt.Sprintf("scale seed %d", seed), ds.DB, ds.Spec, ds.Sims, seed, steps)
		}
		if carried == 0 {
			t.Fatal("no epoch carried its top")
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		carried := 0
		for trial := 0; trial < 25; trial++ {
			d, spec, reg := randomInstance(t, rng)
			carried += runCarried(t, fmt.Sprintf("random trial %d", trial), d, spec, reg, int64(trial), steps/2)
		}
		if carried == 0 {
			t.Fatal("no epoch carried its top")
		}
	})
	t.Run("headless-atom retraction", func(t *testing.T) {
		// g merges papers of one venue whose venue K lists. K(v) binds
		// no head variable, and v is a T-singleton, so retracting it
		// names no member of the class {p1, p2} it builds.
		sch := db.NewSchema()
		sch.MustAdd("Paper", "id", "venue")
		sch.MustAdd("K", "venue")
		sch.MustAdd("Wrote", "paper", "author")
		d := db.New(sch, nil)
		d.MustInsert("Paper", "p1", "v")
		d.MustInsert("Paper", "p2", "v")
		d.MustInsert("Paper", "p3", "w")
		d.MustInsert("K", "v")
		d.MustInsert("Wrote", "p2", "a1")
		d.MustInsert("Wrote", "p3", "a1")
		reg := sim.NewRegistry()
		spec, err := rules.ParseSpec(`soft g: Paper(x,v), Paper(y,v), K(v) ~> EQ(x,y).
soft h: Wrote(x,a), Wrote(y,a), K(v) ~> EQ(x,y).
denial d1: Paper(x,v), Paper(x,w), v != w.`, sch, d.Interner(), reg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMutable(d, spec, reg, Options{Parallelism: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertCarriedMatchesFresh(t, "epoch 0", m.Snapshot(), spec, reg)
		for i, b := range []Batch{
			{Retract: []db.FactSpec{{Rel: "K", Args: []string{"v"}}}},
			{Insert: []db.FactSpec{{Rel: "K", Args: []string{"v"}}}},
			{Retract: []db.FactSpec{{Rel: "Wrote", Args: []string{"p3", "a1"}}}},
			{Retract: []db.FactSpec{{Rel: "Paper", Args: []string{"p1", "v"}}}},
		} {
			_, snap, err := m.ApplyDurable(b, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !assertCarriedMatchesFresh(t, fmt.Sprintf("batch %d", i), snap, spec, reg) {
				t.Fatalf("batch %d: top not carried", i)
			}
		}
	})
	t.Run("sigma2 insert and new names", func(t *testing.T) {
		cfg := workload.DefaultScaleConfig(4, 80)
		ds, err := workload.GenerateScale(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMutable(ds.DB, ds.Spec, ds.Sims, Options{Parallelism: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		top, err := m.Snapshot().latticeTop(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// An Author of a nontrivial class, and a new Author at the same
		// institution whose email is one edit from the member's: σ2
		// joins the new tuple to the class, naming none of its members.
		in := ds.DB.Interner()
		var member []db.Const
		for _, tu := range ds.DB.Tuples("Author") {
			if top.T.ClassSize(tu[0]) > 1 {
				member = tu
				break
			}
		}
		if member == nil {
			t.Fatal("no Author in a nontrivial class")
		}
		email := in.Name(member[1])
		near := email[:len(email)-1] + "q"
		if strings.HasSuffix(email, "q") {
			near = email[:len(email)-1] + "r"
		}
		if approx, ok := ds.Sims.Lookup("approx"); !ok || !approx.Holds(email, near) {
			t.Fatalf("%q and %q are not similar", email, near)
		}
		newAuthor := db.FactSpec{Rel: "Author", Args: []string{"fresh_author", near, in.Name(member[2])}}
		_, snap, err := m.ApplyDurable(Batch{Insert: []db.FactSpec{newAuthor}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if snap.DB().Interner() == ds.DB.Interner() {
			t.Fatal("a batch with new names shares the parent's interner")
		}
		if !assertCarriedMatchesFresh(t, "σ2 insert", snap, ds.Spec, ds.Sims) {
			t.Fatal("σ2 insert: top not carried")
		}
		fa, _ := snap.DB().Interner().Lookup("fresh_author")
		if got, _ := snap.latticeTop(context.Background()); !got.T.Same(fa, member[0]) {
			t.Fatal("the inserted Author did not join the member's class")
		}
		// Retract it again: its class is re-closed back to the old one.
		_, snap, err = m.ApplyDurable(Batch{Retract: []db.FactSpec{newAuthor}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !assertCarriedMatchesFresh(t, "σ2 retract", snap, ds.Spec, ds.Sims) || snap.reclosed == 0 {
			t.Fatalf("σ2 retract: carried %v, %d constants re-closed", snap.carried, snap.reclosed)
		}
		// A batch interning a new name in another relation.
		wrote := ds.DB.Tuples("Wrote")[0]
		_, snap, err = m.ApplyDurable(Batch{Insert: []db.FactSpec{{Rel: "Wrote", Args: []string{
			in.Name(wrote[0]), "fresh_coauthor", in.Name(wrote[2])}}}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !assertCarriedMatchesFresh(t, "new name", snap, ds.Spec, ds.Sims) {
			t.Fatal("new name: top not carried")
		}
	})
}

// FuzzCarriedTop: random instances under random batch sequences; every
// epoch's carried top and answers must equal a fresh engine's.
func FuzzCarriedTop(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		d, spec, reg := randomInstance(t, rand.New(rand.NewSource(seed)))
		runCarried(t, fmt.Sprintf("seed %d", seed), d, spec, reg, seed, 6)
	})
}

// TestCarriedTopAfterCancelledPredecessor: a cancelled resolution is
// not kept. Epoch 0 and then its successor are first asked under a
// cancelled context; on a live one the successor still carries its top
// from epoch 0's, and epoch 0 answers like a fresh engine.
func TestCarriedTopAfterCancelledPredecessor(t *testing.T) {
	ds, err := workload.GenerateScale(workload.DefaultScaleConfig(2, 60))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMutable(ds.DB, ds.Spec, ds.Sims, Options{Parallelism: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	snap0 := m.Snapshot()
	if _, err := snap0.PossibleMergesCtx(dead); !errors.Is(err, limits.ErrCanceled) {
		t.Fatalf("epoch 0 under a cancelled context: err = %v, want ErrCanceled", err)
	}
	author := ds.DB.Tuples("Author")[0]
	in := ds.DB.Interner()
	f := db.FactSpec{Rel: "Author", Args: []string{in.Name(author[0]), in.Name(author[1]), in.Name(author[2])}}
	_, snap, err := m.ApplyDurable(Batch{Retract: []db.FactSpec{f}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.CertainMergesCtx(dead); !errors.Is(err, limits.ErrCanceled) {
		t.Fatalf("epoch 1 under a cancelled context: err = %v, want ErrCanceled", err)
	}
	if !assertCarriedMatchesFresh(t, "after a cancelled predecessor", snap, ds.Spec, ds.Sims) {
		t.Fatal("the successor of a cancelled resolution did not carry its top")
	}
	assertResolvesAsFresh(t, "epoch 0 after a cancelled call", snap0, ds.DB)
}

// TestCarriedTopWhilePredecessorResolves applies epoch N+1 while epoch
// N's resolution is still running on another goroutine, as the server's
// background resolution does; under -race this checks that a successor
// only reads its predecessor's flattened T and frozen D_T.
func TestCarriedTopWhilePredecessorResolves(t *testing.T) {
	ds, err := workload.GenerateScale(workload.DefaultScaleConfig(5, 150))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMutable(ds.DB, ds.Spec, ds.Sims, Options{Parallelism: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := ds.DB.Interner()
	authors := ds.DB.Tuples("Author")
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	resolve := func(snap *EpochSnapshot) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := snap.PossibleMergesCtx(context.Background()); err != nil {
				errs <- err
			}
		}()
	}
	resolve(m.Snapshot())
	var snaps []*EpochSnapshot
	for i := 0; i < 8; i++ {
		tu := authors[i%4]
		f := db.FactSpec{Rel: "Author", Args: []string{in.Name(tu[0]), in.Name(tu[1]), in.Name(tu[2])}}
		b := Batch{Retract: []db.FactSpec{f}}
		if i >= 4 {
			b = Batch{Insert: []db.FactSpec{f}}
		}
		_, snap, err := m.ApplyDurable(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		resolve(snap)
		snaps = append(snaps, snap)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, snap := range snaps {
		assertCarriedMatchesFresh(t, fmt.Sprintf("epoch %d", snap.Epoch()), snap, ds.Spec, ds.Sims)
	}
}
