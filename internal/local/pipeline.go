package local

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/rules"
	"repro/internal/sim"
)

// Result is the joint outcome of collective resolution with local and
// global merges.
type Result struct {
	// Resolver holds the final local equivalence over cells.
	Resolver *Resolver
	// Global is the global solution over the normalized database.
	Global *eqrel.Partition
	// Rounds counts local/global alternations until the fixpoint.
	Rounds int
	// Consistent reports whether the final global state satisfies the
	// denial constraints (global resolution is greedy, like
	// Engine.GreedySolution).
	Consistent bool
}

// Resolve implements the combined framework sketched in Section 7 of
// the paper: it alternates (i) the local chase — local rules evaluated
// on the normalized database modulo the current global merges — and
// (ii) greedy global LACE resolution over the locally normalized
// database, until neither side derives anything new.
//
// Local merges can trigger global merges (normalization makes equality
// joins and similarity atoms hold) and global merges can trigger local
// merges (local rule bodies are evaluated modulo the global relation),
// so a single pass in either order would be incomplete; the alternation
// reaches the joint fixpoint because both equivalence relations only
// ever coarsen.
func Resolve(d *db.Database, localRules []*Rule, spec *rules.Spec, sims *sim.Registry) (*Result, error) {
	res, err := NewResolver(d, localRules, sims)
	if err != nil {
		return nil, err
	}
	var global *eqrel.Partition
	consistent := true
	maxRounds := res.ncell + d.Interner().Size() + 2
	for rounds := 1; ; rounds++ {
		if rounds > maxRounds {
			return nil, fmt.Errorf("local: resolution did not converge after %d rounds (internal error)", rounds)
		}
		localChanged, err := res.Chase(global)
		if err != nil {
			return nil, err
		}
		nd := res.Normalized()
		eng, err := core.New(nd, spec, sims, core.Options{})
		if err != nil {
			return nil, err
		}
		sol, ok, err := eng.GreedySolutionCtx(context.TODO())
		if err != nil {
			return nil, err
		}
		consistent = ok
		globalChanged := global == nil || !sol.Equal(global)
		global = sol
		if !localChanged && !globalChanged {
			return &Result{Resolver: res, Global: global, Rounds: rounds, Consistent: consistent}, nil
		}
	}
}
