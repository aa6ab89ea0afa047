package core

// cancel_test.go checks that a resolve cut short by its caller's
// context is not kept: the next call, on a live context, answers as a
// fresh engine does (TestCarriedTopAfterCancelledPredecessor checks the
// same along an epoch lineage).

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/fixtures"
	"repro/internal/limits"
)

// TestCancelledMidResolveNotKept cancels Figure 1's resolve (an
// inconsistent top, so the stitch and a shard solve run) after every
// number of context checks in turn, then resolves on a live context.
func TestCancelledMidResolveNotKept(t *testing.T) {
	ctx := context.Background()
	for k := int64(0); ; k++ {
		if k > 10_000 {
			t.Fatal("the resolve never finished within the countdown")
		}
		f := fixtures.New()
		se, err := NewSnapshot(f.DB, f.Spec, f.Sims, Options{Parallelism: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		cd := &countdownCtx{Context: ctx}
		cd.left.Store(k)
		_, err = se.MaximalSolutionsCtx(cd)
		if err != nil && !errors.Is(err, limits.ErrCanceled) {
			t.Fatalf("countdown %d: %v", k, err)
		}
		assertResolvesAsFresh(t, "Figure 1", se, f.DB)
		if err == nil {
			t.Logf("the resolve checks its context %d times", k)
			return
		}
	}
}

// countdownCtx reports itself cancelled from its left-th Err call on.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// assertResolvesAsFresh requires se to answer on a live context as a
// fresh snapshot over d does: merges, maximal solutions, stats.
func assertResolvesAsFresh(t *testing.T, label string, se *EpochSnapshot, d *db.Database) {
	t.Helper()
	ctx := context.Background()
	fresh, err := NewSnapshot(d, se.eng.sess.spec, se.eng.sess.sims, Options{Parallelism: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*EpochSnapshot{se, fresh} {
		if _, err := e.PossibleMergesCtx(ctx); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	gp, _ := se.PossibleMergesCtx(ctx)
	wp, _ := fresh.PossibleMergesCtx(ctx)
	gc, _ := se.CertainMergesCtx(ctx)
	wc, _ := fresh.CertainMergesCtx(ctx)
	if !slices.Equal(gp, wp) || !slices.Equal(gc, wc) {
		t.Fatalf("%s: merges after a cancelled call differ from a fresh engine's:\n possible %v vs %v\n certain %v vs %v", label, gp, wp, gc, wc)
	}
	gm, _ := se.MaximalSolutionsCtx(ctx)
	wm, _ := fresh.MaximalSolutionsCtx(ctx)
	if len(gm) != len(wm) {
		t.Fatalf("%s: %d maximal solutions, fresh engine %d", label, len(gm), len(wm))
	}
	for i := range gm {
		if !gm[i].Equal(wm[i]) {
			t.Fatalf("%s: maximal solution %d differs from a fresh engine's", label, i)
		}
	}
	gs, _ := se.Stats()
	ws, _ := fresh.Stats()
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: stats %+v, fresh engine %+v", label, gs, ws)
	}
}

// TestConcurrentCancelledAndLiveResolves: callers on cancelled and on
// live contexts race for Figure 1's first resolve. Every live caller
// gets the fresh engine's answers; a cancelled one gets them too or
// ErrCanceled.
func TestConcurrentCancelledAndLiveResolves(t *testing.T) {
	f := fixtures.New()
	se, err := NewSnapshot(f.DB, f.Spec, f.Sims, Options{Parallelism: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	got := make([][]eqrel.Pair, 8)
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range got {
		ctx := context.Background()
		if i%2 == 0 {
			ctx = dead
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = se.CertainMergesCtx(ctx)
		}()
	}
	wg.Wait()
	want := got[1]
	for i := range got {
		if errs[i] != nil && (i%2 == 1 || !errors.Is(errs[i], limits.ErrCanceled)) {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if errs[i] == nil && !slices.Equal(got[i], want) {
			t.Fatalf("caller %d: certain merges %v, caller 1 got %v", i, got[i], want)
		}
	}
	assertResolvesAsFresh(t, "Figure 1", se, f.DB)
}
