package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/limits"
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
	if _, err := e.IsCertainMergeCtx(ctx, a, b); !limits.IsStop(err) {
		t.Errorf("IsCertainMergeCtx err = %v, want cancellation", err)
	}
	if _, err := e.IsPossibleMergeCtx(ctx, a, b); !limits.IsStop(err) {
		t.Errorf("IsPossibleMergeCtx err = %v, want cancellation", err)
	}
	if _, err := e.ExplainMergeCtx(ctx, a, b); !limits.IsStop(err) {
		t.Errorf("ExplainMergeCtx err = %v, want cancellation", err)
	}
}
