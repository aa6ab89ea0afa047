package core

import (
	"context"

	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/rules"
)

// score.go implements the quantitative extension sketched in Section 7
// of the paper ("Quantitative extensions"): rules carry evidence
// weights, soft rules with negative heads (NEQ) supply evidence against
// merges, and solutions are compared by total evidence. The solution
// semantics itself is unchanged — scoring refines the choice among
// maximal solutions.

// ScoreSolution returns the evidence score of a solution:
//
//	  Σ  weight(rule) over the rule applications of a replayed
//	     derivation of E (each derived pair counted once, through the
//	     rule that first derives it),
//	− Σ  weight(r) over NegSoft rules r and distinct constant pairs
//	     (a, b) matched by r's body w.r.t. E with a ~E b.
//
// E must be a candidate solution (it is replayed).
func (e *Engine) ScoreSolution(E *eqrel.Partition) (float64, error) {
	d, err := e.replay(E)
	if err != nil {
		return 0, err
	}
	byName := make(map[string]*rules.Rule, len(e.sess.spec.Rules))
	for _, r := range e.sess.spec.Rules {
		byName[r.Name] = r
	}
	score := 0.0
	for _, s := range d.steps {
		if r := byName[s.Rule]; r != nil {
			score += r.EffectiveWeight()
		}
	}
	// Negative evidence: merged pairs matched by NegSoft bodies.
	j := e.newRelaxedJoin()
	j.reset(E)
	for _, r := range e.sess.spec.NegSoftRules() {
		seen := make(map[eqrel.Pair]bool)
		j.matches(r, func(a, b db.Const) bool {
			return a != b && E.Same(a, b) && !seen[eqrel.MakePair(a, b)]
		}, func(m relaxedMatch) bool {
			seen[eqrel.MakePair(m.headA, m.headB)] = true
			score -= r.EffectiveWeight()
			return true
		})
	}
	return score, nil
}

// Scored pairs a solution with its evidence score.
type Scored struct {
	E     *eqrel.Partition
	Score float64
}

// BestSolutions returns the maximal solutions with the highest evidence
// score (several in case of ties), ordered as MaximalSolutionsCtx
// returns them.
func (e *Engine) BestSolutions(ctx context.Context) ([]Scored, error) {
	maximal, err := e.MaximalSolutionsCtx(ctx)
	if err != nil {
		return nil, err
	}
	var best []Scored
	for _, m := range maximal {
		s, err := e.ScoreSolution(m)
		if err != nil {
			return nil, err
		}
		switch {
		case len(best) == 0 || s > best[0].Score:
			best = []Scored{{E: m, Score: s}}
		case s == best[0].Score:
			best = append(best, Scored{E: m, Score: s})
		}
	}
	return best, nil
}
