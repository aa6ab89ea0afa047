package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/limits"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestForkMatchesOriginal: forked engines share the session and return
// exactly the results of the engine they were forked from, even when
// many forks run concurrently.
func TestForkMatchesOriginal(t *testing.T) {
	e, _ := fig1Engine(t)
	wantCM, err := e.CertainMergesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantPM, err := e.PossibleMergesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantMS, err := e.MaximalSolutionsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const forks = 4
	var wg sync.WaitGroup
	errs := make(chan error, forks)
	for i := 0; i < forks; i++ {
		w := e.Fork()
		wg.Add(1)
		go func() {
			defer wg.Done()
			cm, err := w.CertainMergesCtx(context.Background())
			if err != nil {
				errs <- err
				return
			}
			pm, err := w.PossibleMergesCtx(context.Background())
			if err != nil {
				errs <- err
				return
			}
			ms, err := w.MaximalSolutionsCtx(context.Background())
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(cm, wantCM) || !reflect.DeepEqual(pm, wantPM) {
				errs <- errors.New("fork merge sets differ from original")
				return
			}
			if len(ms) != len(wantMS) {
				errs <- errors.New("fork maximal solution count differs")
				return
			}
			for j := range ms {
				if !ms[j].Equal(wantMS[j]) {
					errs <- errors.New("fork maximal solutions differ")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !e.DB().Frozen() {
		t.Error("Fork did not freeze the shared database")
	}
}

// TestForksShareTopVerdict: over a frozen database the lattice top is
// closed once per session. Forks running concurrently agree on it, a
// fork asking after them evaluates no rule body, and each caller gets
// its own copy of the top.
func TestForksShareTopVerdict(t *testing.T) {
	ds, err := workload.GenerateScale(workload.DefaultScaleConfig(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e, err := New(ds.DB, ds.Spec, ds.Sims, Options{Recorder: reg, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	const forks = 4
	tops := make([]*eqrel.Partition, forks)
	var wg sync.WaitGroup
	for i := range tops {
		w := e.Fork()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if ms, err := w.MaximalSolutionsCtx(context.Background()); err == nil && len(ms) == 1 {
				tops[i] = ms[0]
			}
		}(i)
	}
	wg.Wait()
	for i, T := range tops {
		if T == nil || !T.Equal(tops[0]) {
			t.Fatalf("fork %d: top %v, want one maximal solution equal to fork 0's", i, T)
		}
	}
	before := reg.Snapshot().Counter(obs.CQEvalMatches)
	ms, err := e.Fork().MaximalSolutionsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counter(obs.CQEvalMatches) - before; n != 0 {
		t.Errorf("a later fork matched %d rule bodies, want 0", n)
	}
	want := tops[0].Key()
	if len(ms) != 1 || ms[0].Key() != want {
		t.Fatalf("a later fork's top %v differs from the first forks' %s", ms, want)
	}

	// Changing a returned top must not reach the session's copy.
	var a, b db.Const = 0, 1
	for ms[0].Same(a, b) {
		b++
	}
	ms[0].Union(a, b)
	again, err := e.Fork().MaximalSolutionsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Key() != want {
		t.Errorf("changing a returned top changed the next fork's: %v", again[0])
	}
}

// TestGreedySolutionCtxCancel: an expired deadline interrupts the
// greedy pass with a typed cancellation error.
func TestGreedySolutionCtxCancel(t *testing.T) {
	e, _ := fig1Engine(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, err := e.GreedySolutionCtx(ctx)
	if err == nil {
		t.Fatal("expired context produced no error")
	}
	if !errors.Is(err, limits.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want a wrapped cancellation error, got %v", err)
	}
}

// TestCtxVariantsCancel: the new context-accepting decision variants
// stop with a typed cancellation error on an expired deadline.
func TestCtxVariantsCancel(t *testing.T) {
	e, f := fig1Engine(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	a, b := f.Const("a4"), f.Const("a5")
	if _, err := e.CertainMergesCtx(ctx); !limits.IsStop(err) {
		t.Errorf("CertainMergesCtx err = %v, want cancellation", err)
	}
	if _, err := e.IsPossibleMergeCtx(ctx, a, b); !limits.IsStop(err) {
		t.Errorf("IsPossibleMergeCtx err = %v, want cancellation", err)
	}
	if _, err := e.ExplainMergeCtx(ctx, a, b); !limits.IsStop(err) {
		t.Errorf("ExplainMergeCtx err = %v, want cancellation", err)
	}
}
