//go:build !race

// The race detector changes allocation counts, so this guard runs only
// in non-race builds.

package core

import (
	"context"
	"testing"

	"repro/internal/eqrel"
	"repro/internal/obs"
	"repro/internal/workload"
)

// maxAllocsPerState bounds the heap allocations of one explored search
// state: its denial check, active-pair query, hard closures and
// incremental induced databases together.
const maxAllocsPerState = 200

// TestSearchAllocsPerState pins the per-state cost of the lattice
// search on a read-sized instance (6 authors, 9 papers, 3 conferences;
// generator seed 22 gives a 192-state lattice): the allocations of a
// full solution walk (enumSolutions) divided by the core.search.states
// counter stay within maxAllocsPerState, sequential and with two
// workers. The instance's top is consistent, so MaximalSolutionsCtx
// answers it without exploring a single state.
func TestSearchAllocsPerState(t *testing.T) {
	cfg := workload.DefaultConfig(22)
	cfg.Authors, cfg.Papers, cfg.Conferences = 6, 9, 3
	ds, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2} {
		reg := obs.NewRegistry()
		eng, err := New(ds.DB, ds.Spec, ds.Sims, Options{Parallelism: par, Recorder: reg})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		before := reg.Snapshot().Counter(obs.CoreSearchStates)
		maximal, err := eng.Fork().MaximalSolutionsCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if explored := reg.Snapshot().Counter(obs.CoreSearchStates) - before; len(maximal) != 1 || explored != 0 {
			t.Fatalf("parallelism %d: MaximalSolutionsCtx returned %d solutions after %d states, want the consistent top after 0",
				par, len(maximal), explored)
		}
		run := func() {
			if err := eng.Fork().enumSolutions(ctx, func(*eqrel.Partition) bool { return false }); err != nil {
				t.Fatal(err)
			}
		}
		run()
		before = reg.Snapshot().Counter(obs.CoreSearchStates)
		const runs = 5
		allocs := testing.AllocsPerRun(runs, run)
		// AllocsPerRun makes one extra warm-up call.
		states := float64(reg.Snapshot().Counter(obs.CoreSearchStates)-before) / (runs + 1)
		if states < 100 {
			t.Fatalf("parallelism %d: lattice has %.0f states, want at least 100", par, states)
		}
		perState := allocs / states
		t.Logf("parallelism %d: %.0f allocations per run, %.0f states, %.1f per state", par, allocs, states, perState)
		if perState > maxAllocsPerState {
			t.Errorf("parallelism %d: %.1f allocations per search state, want at most %d", par, perState, maxAllocsPerState)
		}
	}
}

// maxReplayAllocsPerStep bounds the heap allocations of one replay per
// derivation step it emits: the step's copied facts, similarity atoms
// and dependencies, its slot in the step log and edge index, and the
// per-stage class snapshot amortized over the steps.
const maxReplayAllocsPerStep = 16

// TestReplayAllocsPerStep pins the relaxed join behind explanations:
// replaying the maximal solution of the read-sized seed-22 instance and
// Figure 1's two maximal solutions allocates per step emitted, not per
// tuple tried or per candidate match.
func TestReplayAllocsPerStep(t *testing.T) {
	cfg := workload.DefaultConfig(22)
	cfg.Authors, cfg.Papers, cfg.Conferences = 6, 9, 3
	ds, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	we, err := New(ds.DB, ds.Spec, ds.Sims, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	fe, f := fig1Engine(t)
	for _, c := range []struct {
		name string
		e    *Engine
		E    func() []*eqrel.Partition
	}{
		{"seed 22", we, func() []*eqrel.Partition {
			maximal, err := we.MaximalSolutionsCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return maximal
		}},
		{"figure 1", fe, func() []*eqrel.Partition { return []*eqrel.Partition{m1(fe, f), m2(fe, f)} }},
	} {
		for i, E := range c.E() {
			d, err := c.e.replay(E)
			if err != nil {
				t.Fatal(err)
			}
			steps := len(d.steps)
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := c.e.replay(E); err != nil {
					t.Fatal(err)
				}
			})
			perStep := allocs / float64(steps)
			t.Logf("%s solution %d: %.0f allocations per replay, %d steps, %.1f per step", c.name, i, allocs, steps, perStep)
			if perStep > maxReplayAllocsPerStep {
				t.Errorf("%s solution %d: %.1f allocations per replay step, want at most %d", c.name, i, perStep, maxReplayAllocsPerStep)
			}
		}
	}
}
