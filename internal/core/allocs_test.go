//go:build !race

// The race detector changes allocation counts, so this guard runs only
// in non-race builds.

package core

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// maxAllocsPerState bounds the heap allocations of one explored search
// state: its denial check, active-pair query, hard closures and
// incremental induced databases together.
const maxAllocsPerState = 200

// TestSearchAllocsPerState pins the per-state cost of the lattice
// search on a read-sized instance (6 authors, 9 papers, 3 conferences;
// generator seed 22 gives a 192-state lattice): MaximalSolutionsCtx
// allocations divided by the core.search.states counter stay within
// maxAllocsPerState, sequential and with two workers.
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
		run := func() {
			if _, err := eng.Fork().MaximalSolutionsCtx(ctx); err != nil {
				t.Fatal(err)
			}
		}
		run()
		before := reg.Snapshot().Counter(obs.CoreSearchStates)
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
