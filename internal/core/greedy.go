package core

import (
	"context"

	"repro/internal/eqrel"
	"repro/internal/limits"
)

// GreedySolutionCtx computes a single solution by greedy extension: from
// the hard closure of the identity, it repeatedly adds active pairs
// whose hard closure does not increase the number of violated denial
// constraints, until a fixpoint. The result is a solution whenever the
// final state is consistent (initial violations may be repaired along
// the way, e.g. FD violations resolved by merges).
//
// This is the scalable counterpart of MaximalSolutions: exact maximal
// enumeration is coNP-hard territory (Table 1), while the greedy pass
// runs in polynomial time and returns a solution that is maximal w.r.t.
// single-pair extension. It is used by the workload experiments, which
// mirror how the paper's envisioned prototype would be deployed on
// real ER benchmarks (Section 7).
//
// The context is polled once per candidate pair, so a deadline
// interrupts the pass between extensions. The error matches
// limits.ErrCanceled (and the underlying context error) when the
// context fires.
func (e *Engine) GreedySolutionCtx(ctx context.Context) (*eqrel.Partition, bool, error) {
	E := e.Identity()
	e.hardClose(E)
	st := e.stateOf(E)
	cur := len(e.violatedDenials(st.E, st.ind))
	for {
		progressed := false
		for _, a := range e.activePairs(st.E, st.ind) {
			if err := ctx.Err(); err != nil {
				return nil, false, limits.Wrap(err)
			}
			if st.E.Same(a.Pair.A, a.Pair.B) {
				continue // merged by an earlier acceptance this sweep
			}
			cand, err := e.expand(ctx, st, a.Pair)
			if err != nil {
				return nil, false, err
			}
			if v := len(e.violatedDenials(cand.E, cand.ind)); v <= cur {
				st, cur, progressed = cand, v, true
			}
		}
		if !progressed {
			break
		}
	}
	return st.E, cur == 0, nil
}
