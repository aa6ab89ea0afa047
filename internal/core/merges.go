package core

import (
	"context"
	"sort"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eqrel"
)

// IsPossibleMergeCtx decides PossMerge (Theorem 5: NP-complete): whether
// (a, b) belongs to some maximal solution. Since every solution extends
// to a maximal one, it suffices to find any solution containing the
// pair, so the search stops (and, under parallelism, cancels the other
// workers) at the first hit.
func (e *Engine) IsPossibleMergeCtx(ctx context.Context, a, b db.Const) (bool, error) {
	found := false
	err := e.enumSolutions(ctx, func(E *eqrel.Partition) bool {
		if E.Same(a, b) {
			found = true
			return true
		}
		return false
	})
	return found, err
}

// witnesses returns, for each pair, the first maximal solution in
// canonical order that contains it and the first that does not; either
// is nil when no such solution exists.
func (e *Engine) witnesses(ctx context.Context, pairs []eqrel.Pair) (with, without []*eqrel.Partition, err error) {
	maximal, err := e.MaximalSolutionsCtx(ctx)
	if err != nil {
		return nil, nil, err
	}
	with = make([]*eqrel.Partition, len(pairs))
	without = make([]*eqrel.Partition, len(pairs))
	for i, p := range pairs {
		for _, m := range maximal {
			if m.Same(p.A, p.B) {
				if with[i] == nil {
					with[i] = m
				}
			} else if without[i] == nil {
				without[i] = m
			}
			if with[i] != nil && without[i] != nil {
				break
			}
		}
	}
	return with, without, nil
}

// PossibleMergesCtx returns possMerge(D, Σ): the union of the merge sets of
// all maximal solutions, sorted. The output is a sorted set, so
// sequential and parallel runs return identical results.
func (e *Engine) PossibleMergesCtx(ctx context.Context) ([]eqrel.Pair, error) {
	maximal, err := e.MaximalSolutionsCtx(ctx)
	if err != nil {
		return nil, err
	}
	seen := make(map[eqrel.Pair]bool)
	for _, m := range maximal {
		for _, p := range m.Pairs() {
			seen[p] = true
		}
	}
	return sortedPairs(seen), nil
}

// CertainMergesCtx returns certMerge(D, Σ): the intersection of the merge
// sets of all maximal solutions (empty when no solution exists), sorted.
func (e *Engine) CertainMergesCtx(ctx context.Context) ([]eqrel.Pair, error) {
	maximal, err := e.MaximalSolutionsCtx(ctx)
	if err != nil {
		return nil, err
	}
	if len(maximal) == 0 {
		return nil, nil
	}
	inter := make(map[eqrel.Pair]bool)
	for _, p := range maximal[0].Pairs() {
		inter[p] = true
	}
	for _, m := range maximal[1:] {
		for p := range inter {
			if !m.Same(p.A, p.B) {
				delete(inter, p)
			}
		}
	}
	return sortedPairs(inter), nil
}

func sortedPairs(set map[eqrel.Pair]bool) []eqrel.Pair {
	out := make([]eqrel.Pair, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// AnswersIn returns q(D, E): the tuples of original constants ā such
// that (rep_E(a1), ..., rep_E(an)) ∈ q(D_E), reported over class
// representatives (one tuple per answer class), sorted. The plan for q
// is prepared once and cached; constants are remapped at run time.
func (e *Engine) AnswersIn(q *cq.CQ, E *eqrel.Partition) ([][]db.Const, error) {
	pq, err := e.planFor(q, q.Atoms, q.Head)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out [][]db.Const
	pq.plan.RunWith(e.Induced(E), cq.RunSpec{Rec: e.rec, Rep: e.repFor(E)},
		func(ans []db.Const, _ []cq.Match) bool {
			k := db.TupleKey(ans)
			if !seen[k] {
				seen[k] = true
				out = append(out, append([]db.Const(nil), ans...))
			}
			return true
		})
	sortTuples(out)
	return out, nil
}

// HoldsIn reports whether ā ∈ q(D, E), i.e. the representative tuple of
// ā is an answer to q on D_E. The head variables are pre-bound to the
// representatives of ā, so the cached plan is shared with AnswersIn.
func (e *Engine) HoldsIn(q *cq.CQ, tuple []db.Const, E *eqrel.Partition) (bool, error) {
	if len(tuple) != len(q.Head) {
		return false, nil
	}
	pq, err := e.planFor(q, q.Atoms, q.Head)
	if err != nil {
		return false, err
	}
	bind := make(map[string]db.Const, len(q.Head))
	for i, h := range q.Head {
		c := tuple[i]
		if int(c) < e.sess.dom {
			c = E.Rep(c)
		}
		bind[h] = c
	}
	return pq.plan.Holds(e.Induced(E), cq.RunSpec{Rec: e.rec, Rep: e.repFor(E), Bind: bind}), nil
}

// IsPossibleAnswerCtx decides PossAnswer (Theorem 7: NP-complete): whether
// ā ∈ q(D, E) for some maximal solution E. Query answers are preserved
// under extension of E (queries are homomorphism-preserved), so any
// solution witnesses possibility.
func (e *Engine) IsPossibleAnswerCtx(ctx context.Context, q *cq.CQ, tuple []db.Const) (bool, error) {
	found := false
	var inner error
	err := e.SolutionsCtx(ctx, func(E *eqrel.Partition) bool {
		ok, herr := e.HoldsIn(q, tuple, E)
		if herr != nil {
			inner = herr
			return true
		}
		if ok {
			found = true
			return true
		}
		return false
	})
	if inner != nil {
		return false, inner
	}
	return found, err
}

// PossibleAnswersCtx returns possAns(q, D, Σ): the union of q(D, E) over
// all maximal solutions E, with each representative answer expanded to
// every original-constant tuple in its equivalence classes.
func (e *Engine) PossibleAnswersCtx(ctx context.Context, q *cq.CQ) ([][]db.Const, error) {
	maximal, err := e.MaximalSolutionsCtx(ctx)
	if err != nil {
		return nil, err
	}
	return e.answers(q, maximal, false)
}

// CertainAnswersCtx returns certAns(q, D, Σ): the tuples that are answers
// in every maximal solution (empty when none exists).
func (e *Engine) CertainAnswersCtx(ctx context.Context, q *cq.CQ) ([][]db.Const, error) {
	maximal, err := e.MaximalSolutionsCtx(ctx)
	if err != nil {
		return nil, err
	}
	return e.answers(q, maximal, true)
}

// answers returns the answers to q, evaluated on e, in every (certain)
// or in some of the maximal solutions, sorted.
func (e *Engine) answers(q *cq.CQ, maximal []*eqrel.Partition, certain bool) ([][]db.Const, error) {
	// A solution's expanded answers are distinct, so a tuple's count is
	// the number of maximal solutions answering it.
	counts := make(map[string]int)
	var seen [][]db.Const
	for _, m := range maximal {
		ts, err := e.expandedAnswers(q, m)
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			k := db.TupleKey(t)
			if counts[k] == 0 {
				seen = append(seen, t)
			}
			counts[k]++
		}
	}
	out := seen
	if certain {
		out = nil
		for _, t := range seen {
			if counts[db.TupleKey(t)] == len(maximal) {
				out = append(out, t)
			}
		}
	}
	sortTuples(out)
	return out, nil
}

// expandedAnswers computes q(D, E) as original-constant tuples: each
// representative answer is expanded through the classes of its
// components.
func (e *Engine) expandedAnswers(q *cq.CQ, E *eqrel.Partition) ([][]db.Const, error) {
	reps, err := e.AnswersIn(q, E)
	if err != nil {
		return nil, err
	}
	members := e.classMembers(E)
	var out [][]db.Const
	for _, rep := range reps {
		out = appendExpansions(out, rep, members)
	}
	return out, nil
}

// classMembers maps each representative to the sorted members of its
// class (singletons included lazily via fallback in appendExpansions).
func (e *Engine) classMembers(E *eqrel.Partition) map[db.Const][]db.Const {
	m := make(map[db.Const][]db.Const)
	for _, cls := range E.NontrivialClasses() {
		m[cls[0]] = cls
	}
	return m
}

func appendExpansions(out [][]db.Const, rep []db.Const, members map[db.Const][]db.Const) [][]db.Const {
	choices := make([][]db.Const, len(rep))
	total := 1
	for i, c := range rep {
		if ms := members[c]; ms != nil {
			choices[i] = ms
		} else {
			choices[i] = []db.Const{c}
		}
		total *= len(choices[i])
	}
	idx := make([]int, len(rep))
	for n := 0; n < total; n++ {
		t := make([]db.Const, len(rep))
		for i := range rep {
			t[i] = choices[i][idx[i]]
		}
		out = append(out, t)
		for i := len(idx) - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(choices[i]) {
				break
			}
			idx[i] = 0
		}
	}
	return out
}

func sortTuples(ts [][]db.Const) {
	sort.Slice(ts, func(i, j int) bool {
		for k := range ts[i] {
			if ts[i][k] != ts[j][k] {
				return ts[i][k] < ts[j][k]
			}
		}
		return false
	})
}
