package core

import (
	"fmt"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/rules"
)

// This file freezes the full-table nested-loop relaxed join, and the
// replay and scoring built on it, as the reference the indexed join in
// relaxed.go is diffed against (TestRelaxedJoinMatchesReference). It
// must never be "improved": its value is that it is the exact join whose
// match order, and so whose derivations, justifications and scores, the
// indexed join contractually reproduces.

// relaxedMatchesRef enumerates relaxed homomorphisms of r's body into the
// engine's original database w.r.t. E. cb returning false stops the
// enumeration. Match contents are fresh copies.
func (e *Engine) relaxedMatchesRef(r *rules.Rule, E *eqrel.Partition, cb func(relaxedMatch) bool) error {
	// occurrences[v] collects the original constants bound to variable v.
	binding := make(map[string]db.Const) // variable -> class representative
	occurrences := make(map[string][]db.Const)
	var facts []db.Fact
	var sims []SimFact

	atoms := r.Body.Atoms
	// Order: relational atoms first (in order), then similarity atoms.
	// Rule bodies are safe, so similarity variables are bound by then.
	var relAtoms, simAtoms []cq.Atom
	for _, a := range atoms {
		if a.Kind == cq.KindRel {
			relAtoms = append(relAtoms, a)
		} else {
			simAtoms = append(simAtoms, a)
		}
	}
	// occKeys lists the occurrence keys in body order, so dependencies
	// (and the justifications built from them) come out in a fixed order.
	var occKeys []string
	seenKey := make(map[string]bool)
	for _, a := range relAtoms {
		for _, t := range a.Args {
			k := t.Name
			if !t.IsVar {
				k = constKey(t.Const)
			}
			if !seenKey[k] {
				seenKey[k] = true
				occKeys = append(occKeys, k)
			}
		}
	}

	emit := func() bool {
		m := relaxedMatch{
			facts: append([]db.Fact(nil), facts...),
			sims:  append([]SimFact(nil), sims...),
		}
		m.headA = occurrences[r.X()][0]
		m.headB = occurrences[r.Y()][0]
		seen := make(map[eqrel.Pair]bool)
		for _, k := range occKeys {
			occ := occurrences[k]
			for i := 0; i < len(occ); i++ {
				for j := i + 1; j < len(occ); j++ {
					if occ[i] != occ[j] {
						p := eqrel.MakePair(occ[i], occ[j])
						if !seen[p] {
							seen[p] = true
							m.deps = append(m.deps, p)
						}
					}
				}
			}
		}
		return cb(m)
	}

	var checkSims func(i int) bool
	checkSims = func(i int) bool {
		if i == len(simAtoms) {
			return emit()
		}
		a := simAtoms[i]
		p, ok := e.Sims().Lookup(a.Pred)
		if !ok {
			return true
		}
		vals := make([]db.Const, 2)
		for j, t := range a.Args {
			if t.IsVar {
				vals[j] = binding[t.Name]
			} else {
				vals[j] = t.Const
			}
		}
		// Sim-safety guarantees the bound representatives are original
		// values (sim attributes never merge), so evaluating the
		// predicate on the representative names is faithful.
		in := e.sess.d.Interner()
		na, nb := in.Name(vals[0]), in.Name(vals[1])
		if p.Holds(na, nb) {
			sims = append(sims, SimFact{Pred: a.Pred, A: na, B: nb})
			cont := checkSims(i + 1)
			sims = sims[:len(sims)-1]
			return cont
		}
		return true
	}

	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(relAtoms) {
			return checkSims(0)
		}
		a := relAtoms[i]
		table := e.sess.d.Table(a.Pred)
		if table == nil {
			return true
		}
		for _, tup := range table.Tuples() {
			ok := true
			var bound []string
			for pos, t := range a.Args {
				val := tup[pos]
				if !t.IsVar {
					if E.Rep(val) != E.Rep(t.Const) {
						ok = false
						break
					}
					continue
				}
				if rep, have := binding[t.Name]; have {
					if E.Rep(val) != rep {
						ok = false
						break
					}
				} else {
					binding[t.Name] = E.Rep(val)
					bound = append(bound, t.Name)
				}
			}
			cont := true
			if ok {
				var occAdded []string
				for pos, t := range a.Args {
					if t.IsVar {
						occurrences[t.Name] = append(occurrences[t.Name], tup[pos])
						occAdded = append(occAdded, t.Name)
					} else if tup[pos] != t.Const {
						// A body constant matched a merged variant: that
						// merge is a dependency of the application, like
						// a shared-variable join. Track it via a
						// synthetic occurrence key.
						key := constKey(t.Const)
						occurrences[key] = append(occurrences[key], t.Const, tup[pos])
						occAdded = append(occAdded, key, key)
					}
				}
				facts = append(facts, db.Fact{Rel: a.Pred, Args: tup})
				cont = rec(i + 1)
				facts = facts[:len(facts)-1]
				for _, v := range occAdded {
					occurrences[v] = occurrences[v][:len(occurrences[v])-1]
				}
			}
			for _, v := range bound {
				delete(binding, v)
			}
			if !cont {
				return false
			}
		}
		return true
	}
	rec(0)
	return nil
}

// constKey is the synthetic occurrence key of a body constant.
func constKey(c db.Const) string { return fmt.Sprintf("#%d", c) }

// replayRef is Replay over relaxedMatchesRef: every stage collects all
// new in-solution matches modulo the relation at the stage's start,
// then keeps the first derivation of each pair.
func (e *Engine) replayRef(E *eqrel.Partition) (*derivation, error) {
	d := &derivation{adj: make(map[db.Const][]edgeRef)}
	cur := e.Identity()
	for {
		var stage []JustStep
		for _, r := range e.sess.spec.MergeRules() {
			err := e.relaxedMatchesRef(r, cur, func(m relaxedMatch) bool {
				if m.headA == m.headB || cur.Same(m.headA, m.headB) {
					return true
				}
				if !E.Same(m.headA, m.headB) {
					return true // outside the target solution
				}
				stage = append(stage, JustStep{
					Pair:  eqrel.MakePair(m.headA, m.headB),
					Kind:  RuleApp,
					Rule:  r.Name,
					Facts: m.facts,
					Sims:  m.sims,
					Deps:  m.deps,
				})
				return true
			})
			if err != nil {
				return nil, err
			}
		}
		progressed := false
		for _, s := range stage {
			if cur.Same(s.Pair.A, s.Pair.B) {
				// Another step of this stage already merged the classes;
				// keep the first derivation only.
				continue
			}
			cur.Union(s.Pair.A, s.Pair.B)
			idx := len(d.steps)
			d.steps = append(d.steps, s)
			d.adj[s.Pair.A] = append(d.adj[s.Pair.A], edgeRef{idx, s.Pair.B})
			d.adj[s.Pair.B] = append(d.adj[s.Pair.B], edgeRef{idx, s.Pair.A})
			progressed = true
		}
		if !progressed {
			break
		}
	}
	if !cur.Equal(E) {
		return nil, fmt.Errorf("core: replay of %s did not reconstruct the solution (got %s); is it a candidate solution?",
			E, cur)
	}
	return d, nil
}

// scoreRef is ScoreSolution over replayRef and relaxedMatchesRef.
func (e *Engine) scoreRef(E *eqrel.Partition) (float64, error) {
	d, err := e.replayRef(E)
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
	for _, r := range e.sess.spec.NegSoftRules() {
		seen := make(map[eqrel.Pair]bool)
		err := e.relaxedMatchesRef(r, E, func(m relaxedMatch) bool {
			if m.headA == m.headB || !E.Same(m.headA, m.headB) {
				return true
			}
			p := eqrel.MakePair(m.headA, m.headB)
			if !seen[p] {
				seen[p] = true
				score -= r.EffectiveWeight()
			}
			return true
		})
		if err != nil {
			return 0, err
		}
	}
	return score, nil
}
