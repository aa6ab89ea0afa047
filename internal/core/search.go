package core

import (
	"context"
	"slices"
	"strings"

	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/limits"
	"repro/internal/obs"
)

// SolutionsCtx enumerates solutions of (D, Σ), invoking visit for each (the
// partition is live; clone to retain). Enumeration stops early when
// visit returns true. The error is ErrBudget when the search budget was
// exhausted before the space was fully explored, and wraps ctx.Err()
// when ctx is done first. SolutionsCtx always walks with one worker, on
// the caller's goroutine and depth-first in active-pair order — its
// visit order is part of its contract — regardless of
// Options.Parallelism.
func (e *Engine) SolutionsCtx(ctx context.Context, visit func(E *eqrel.Partition) bool) error {
	return e.walk(ctx, e.Identity(), 1, visit)
}

// enumSolutions runs visit over the solutions reachable from the
// identity with Options.Parallelism workers. visit must accumulate
// order-independent results only (sets, antichains, first-hit flags):
// with several workers calls are serialized but their order depends on
// scheduling.
func (e *Engine) enumSolutions(ctx context.Context, visit func(E *eqrel.Partition) bool) error {
	return e.walk(ctx, e.Identity(), e.sess.workers(), visit)
}

// ExistenceCtx decides whether Sol(D, Σ) ≠ ∅ and returns a witness
// solution when one exists (Theorem 2: NP-complete in general). For
// restricted specifications it uses the polynomial algorithm of
// Theorem 8 instead of search. Under parallelism the witness found
// first may differ between runs; the boolean is deterministic.
func (e *Engine) ExistenceCtx(ctx context.Context) (*eqrel.Partition, bool, error) {
	if e.sess.spec.IsRestricted() {
		h, ok := e.existenceRestricted()
		return h, ok, nil
	}
	var found *eqrel.Partition
	err := e.enumSolutions(ctx, func(E *eqrel.Partition) bool {
		found = E.Clone()
		return true
	})
	if err != nil {
		return nil, false, err
	}
	return found, found != nil, nil
}

// existenceRestricted implements Theorem 8: with inequality-free denial
// constraints, a solution exists iff the hard closure of the identity is
// consistent (every solution contains it, and violations persist).
func (e *Engine) existenceRestricted() (*eqrel.Partition, bool) {
	h := e.Identity()
	e.hardClose(h)
	if !e.SatisfiesDenials(h) {
		return nil, false
	}
	return h, true
}

// MaximalSolutionsCtx returns all ⊆-maximal solutions, ordered by
// canonical partition key. It first tries the top of the candidate
// lattice (see consistentTop): when the closure of the identity under
// every merge rule satisfies Δ, that closure is the unique maximal
// solution and no state is explored. Otherwise the solution space is
// enumerated — in parallel when Options.Parallelism > 1 — and filtered
// to its maximal antichain. The antichain is a set, so sequential and
// parallel runs return identical output.
func (e *Engine) MaximalSolutionsCtx(ctx context.Context) ([]*eqrel.Partition, error) {
	sp := e.rec.Start(obs.SpanCoreMaxSol)
	defer sp.End()
	top, err := e.consistentTop(ctx)
	if err != nil {
		return nil, err
	}
	if top != nil {
		return []*eqrel.Partition{top}, nil
	}
	var maximal []*eqrel.Partition
	err = e.enumSolutions(ctx, func(E *eqrel.Partition) bool {
		for i := 0; i < len(maximal); i++ {
			if E.Subset(maximal[i]) {
				return false // dominated
			}
		}
		kept := maximal[:0]
		for _, m := range maximal {
			if !m.ProperSubset(E) {
				kept = append(kept, m)
			}
		}
		maximal = append(kept, E.Clone())
		return false
	})
	if err != nil {
		return nil, err
	}
	sortPartitions(maximal)
	return maximal, nil
}

// consistentTop returns the top T of the candidate lattice, the closure
// of the identity under every merge rule, when T satisfies Δ, and nil
// otherwise. Activity is monotone (rule bodies are negation-free), so
// every candidate solution lies below T; T is hard-closed, so a
// consistent T is a solution containing every solution, i.e. the unique
// maximal one. Both tractable classes of Theorem 9 are instances: with
// Δ = ∅ T is always consistent, and with Γs = ∅ T is the hard closure,
// whose inconsistency leaves a one-state walk that finds no solution.
// Over a frozen database the verdict is computed once per session and
// shared by every Fork; each caller gets its own copy of T.
func (e *Engine) consistentTop(ctx context.Context) (*eqrel.Partition, error) {
	v := e.sess.top.Load()
	if v == nil {
		T, _, ok, err := e.top(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			T = nil
		}
		v = &topVerdict{T: T}
		if e.sess.d.Frozen() {
			e.sess.top.Store(v)
		}
	}
	if v.T == nil {
		return nil, nil
	}
	return v.T.Clone(), nil
}

// top computes the top T of the candidate lattice by closing the
// identity under every merge rule over the base database, and returns
// T, its induced database D_T and whether (D, T) satisfies Δ. It is the
// one closure both consistentTop and a snapshot's planning
// start from.
func (c *Context) top(ctx context.Context) (*eqrel.Partition, *db.Database, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, false, limits.Wrap(err)
	}
	T := c.Identity()
	ind, _, err := c.closeFrom(ctx, T, c.sess.d, c.sess.mergeRules, nil, nil)
	if err != nil {
		return nil, nil, false, err
	}
	return T, ind, c.satisfiesDenials(T, ind), nil
}

// sortPartitions orders partitions by canonical key: the deterministic
// output order shared by the sequential and parallel searches. Each key
// is built once, not once per comparison.
func sortPartitions(ps []*eqrel.Partition) {
	keyed := make([]state, len(ps))
	for i, p := range ps {
		keyed[i] = state{E: p, key: p.Key()}
	}
	slices.SortFunc(keyed, func(a, b state) int { return strings.Compare(a.key, b.key) })
	for i := range keyed {
		ps[i] = keyed[i].E
	}
}

// IsMaximalSolution decides MaxRec (Theorem 3: coNP-complete in
// general; Theorem 8: polynomial for restricted specifications).
func (e *Engine) IsMaximalSolution(ctx context.Context, E *eqrel.Partition) (bool, error) {
	if !e.IsSolution(E) {
		return false, nil
	}
	cur := e.stateOf(E)
	for _, a := range e.activePairs(E, cur.ind) {
		ext, err := e.expand(ctx, cur, a.Pair)
		if err != nil {
			return false, err
		}
		if e.sess.spec.IsRestricted() {
			// Theorem 8: the minimal extension suffices — if it is
			// inconsistent, every further extension stays inconsistent.
			if e.satisfiesDenials(ext.E, ext.ind) {
				return false, nil
			}
			continue
		}
		// General case: search for any solution extending E ∪ {α}. Any
		// strictly larger solution must pass through some currently
		// soft-active pair, so this is complete.
		found := false
		err = e.walk(ctx, ext.E, e.sess.workers(), func(*eqrel.Partition) bool {
			found = true
			return true
		})
		if err != nil {
			return false, err
		}
		if found {
			return false, nil
		}
	}
	return true, nil
}
