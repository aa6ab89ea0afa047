package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/eqrel"
	"repro/internal/obs"
)

// TestParallelMatchesSequential is the differential gate for the
// parallel searcher: over randomized seeded instances, the parallel
// engine must return byte-identical MaximalSolutions, CertainMerges and
// PossibleMerges (and the same Existence verdict) as the sequential
// one. Run under -race this also exercises the Session/Context
// concurrency contract.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for trial := 0; trial < 40; trial++ {
		d, spec, reg := randomInstance(t, rng)
		seq, err := New(d, spec, reg, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := New(d, spec, reg, Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}

		seqMax, err := seq.MaximalSolutionsCtx(context.Background())
		if err != nil {
			t.Fatalf("trial %d: sequential MaximalSolutions: %v", trial, err)
		}
		parMax, err := par.MaximalSolutionsCtx(context.Background())
		if err != nil {
			t.Fatalf("trial %d: parallel MaximalSolutions: %v", trial, err)
		}
		if len(seqMax) != len(parMax) {
			t.Fatalf("trial %d: %d maximal solutions sequentially, %d in parallel",
				trial, len(seqMax), len(parMax))
		}
		for i := range seqMax {
			if seqMax[i].Key() != parMax[i].Key() {
				t.Fatalf("trial %d: maximal[%d] differs:\nseq %v\npar %v",
					trial, i, seqMax[i], parMax[i])
			}
		}

		seqCert, err := seq.CertainMergesCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		parCert, err := par.CertainMergesCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !samePairs(seqCert, parCert) {
			t.Fatalf("trial %d: CertainMerges differ: seq %v, par %v", trial, seqCert, parCert)
		}

		seqPoss, err := seq.PossibleMergesCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		parPoss, err := par.PossibleMergesCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !samePairs(seqPoss, parPoss) {
			t.Fatalf("trial %d: PossibleMerges differ: seq %v, par %v", trial, seqPoss, parPoss)
		}

		_, seqOK, err := seq.ExistenceCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		parW, parOK, err := par.ExistenceCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if seqOK != parOK {
			t.Fatalf("trial %d: Existence = %v sequentially, %v in parallel", trial, seqOK, parOK)
		}
		if parOK {
			// The parallel witness may differ, but must be a solution.
			isSol, err := par.IsSolution(parW)
			if err != nil {
				t.Fatal(err)
			}
			if !isSol {
				t.Fatalf("trial %d: parallel Existence witness is not a solution: %v", trial, parW)
			}
		}
	}
}

func samePairs(a, b []eqrel.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParallelBudget: the parallel searcher honors Options.MaxStates
// with ErrBudget like the sequential one.
func TestParallelBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		d, spec, reg := randomInstance(t, rng)
		par, err := New(d, spec, reg, Options{Parallelism: 4, MaxStates: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, err = par.MaximalSolutionsCtx(context.Background())
		if err == nil {
			// A space of exactly one state fits the budget; verify that
			// is the case via a sequential engine.
			seqE, nerr := New(d, spec, reg, Options{Parallelism: 1})
			if nerr != nil {
				t.Fatal(nerr)
			}
			states := 0
			if serr := seqE.SolutionsCtx(context.Background(), func(*eqrel.Partition) bool { states++; return false }); serr != nil && !errors.Is(serr, ErrBudget) {
				t.Fatal(serr)
			}
			continue
		}
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("trial %d: want ErrBudget, got %v", trial, err)
		}
	}
}

// TestParallelCancellation: a pre-cancelled context aborts the parallel
// search with ctx.Err().
func TestParallelCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	d, spec, reg := randomInstance(t, rng)
	par, err := New(d, spec, reg, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := par.MaximalSolutionsCtx(ctx); err == nil || !errors.Is(err, context.Canceled) {
		// Tractable Theorem 9 fragments never enter the search and
		// legitimately succeed; only the general path must observe ctx.
		if !(err == nil && (spec.IsHardOnly() || spec.IsDenialFree())) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	}

	// Sequential path observes cancellation too.
	seqE, err := New(d, spec, reg, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	serr := seqE.SolutionsCtx(ctx, func(*eqrel.Partition) bool { return false })
	if !errors.Is(serr, context.Canceled) {
		t.Fatalf("sequential: want context.Canceled, got %v", serr)
	}
}

// TestParallelSolutionsOrderUnchanged pins that Solutions keeps its
// sequential DFS visit order even on an engine configured for
// parallelism (the enumeration order is part of its contract).
func TestParallelSolutionsOrderUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d, spec, reg := randomInstance(t, rng)
	a, err := New(d, spec, reg, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(d, spec, reg, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ka, kb []string
	if err := a.SolutionsCtx(context.Background(), func(E *eqrel.Partition) bool { ka = append(ka, E.Key()); return false }); err != nil {
		t.Fatal(err)
	}
	if err := b.SolutionsCtx(context.Background(), func(E *eqrel.Partition) bool { kb = append(kb, E.Key()); return false }); err != nil {
		t.Fatal(err)
	}
	if len(ka) != len(kb) {
		t.Fatalf("solution counts differ: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("visit order diverged at %d", i)
		}
	}
}

// refSolutions is the depth-first walk SolutionsCtx's visit order is
// pinned to, written as a plain recursion: from the hard closure of the
// identity, skip a state seen before, visit a consistent state, prune an
// inconsistent one under a restricted spec, and recurse into the
// hard-closed child of each active pair in order. It returns the keys
// of the solutions in visit order and the number of states explored.
func refSolutions(t *testing.T, e *Engine) ([]string, int) {
	t.Helper()
	root := e.Identity()
	if err := e.HardClose(root); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	var keys []string
	var rec func(st state)
	rec = func(st state) {
		if seen[st.key] {
			return
		}
		seen[st.key] = true
		if e.satisfiesDenials(st.E, st.ind) {
			keys = append(keys, st.key)
		} else if e.Spec().IsRestricted() {
			return
		}
		for _, a := range e.activePairs(st.E, st.ind) {
			child, err := e.expand(context.Background(), st, a.Pair)
			if err != nil {
				t.Fatal(err)
			}
			rec(child)
		}
	}
	rec(e.stateOf(root))
	return keys, len(seen)
}

// TestSolutionsOrderMatchesReference: SolutionsCtx visits the solutions
// of random instances in exactly refSolutions' order and explores the
// same states, on an engine configured for one worker and on one
// configured for four.
func TestSolutionsOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		d, spec, sims := randomInstance(t, rng)
		ref, err := New(d, spec, sims, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, states := refSolutions(t, ref)
		for _, par := range []int{1, 4} {
			reg := obs.NewRegistry()
			e, err := New(d, spec, sims, Options{Parallelism: par, Recorder: reg})
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			if err := e.SolutionsCtx(context.Background(), func(E *eqrel.Partition) bool {
				got = append(got, E.Key())
				return false
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d (par %d): visit order %q, reference %q", trial, par, got, want)
			}
			if n := reg.Snapshot().Counter(obs.CoreSearchStates); n != int64(states) {
				t.Fatalf("trial %d (par %d): %d states explored, reference %d", trial, par, n, states)
			}
		}
	}
}
