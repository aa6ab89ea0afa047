package core

import (
	"fmt"
	"strings"

	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/obs"
)

// StepKind distinguishes the two kinds of justification steps of
// Definition 4.
type StepKind int

// Justification step kinds.
const (
	// RuleApp is a rule application: the pair is produced by a rule
	// whose body is satisfied by original database facts, joined via
	// previously derived merges (Deps).
	RuleApp StepKind = iota
	// Transitive combines two earlier pairs sharing an endpoint.
	Transitive
)

// JustStep is one element (e_i, e'_i) of a justification sequence.
type JustStep struct {
	Pair eqrel.Pair
	Kind StepKind
	// RuleApp fields:
	Rule  string
	Facts []db.Fact
	Sims  []SimFact
	Deps  []eqrel.Pair // earlier merges used to join the facts
	// Transitive fields: the two earlier pairs being chained.
	Left, Right eqrel.Pair
}

// Justification is a sequence of steps ending in the target pair, each
// step supported by earlier steps per Definition 4.
type Justification struct {
	Target eqrel.Pair
	Steps  []JustStep
}

// Format renders the justification with constant names.
func (j *Justification) Format(in *db.Interner) string {
	var b strings.Builder
	name := func(c db.Const) string { return in.Name(c) }
	for i, s := range j.Steps {
		fmt.Fprintf(&b, "%2d. (%s,%s) ", i+1, name(s.Pair.A), name(s.Pair.B))
		switch s.Kind {
		case Transitive:
			fmt.Fprintf(&b, "by transitivity of (%s,%s) and (%s,%s)",
				name(s.Left.A), name(s.Left.B), name(s.Right.A), name(s.Right.B))
		default:
			fmt.Fprintf(&b, "by rule %s using", s.Rule)
			for _, f := range s.Facts {
				parts := make([]string, len(f.Args))
				for k, c := range f.Args {
					parts[k] = name(c)
				}
				fmt.Fprintf(&b, " %s(%s)", f.Rel, strings.Join(parts, ","))
			}
			for _, sf := range s.Sims {
				fmt.Fprintf(&b, " %s", sf)
			}
			if len(s.Deps) > 0 {
				b.WriteString(" joining via")
				for _, d := range s.Deps {
					fmt.Fprintf(&b, " (%s,%s)", name(d.A), name(d.B))
				}
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// derivation is the replayed construction of a solution: a chronological
// log of rule applications, each valid at the time it was recorded.
type derivation struct {
	steps []JustStep // all RuleApp kind
	// edge index: constant -> adjacent (step index, other endpoint)
	adj map[db.Const][]edgeRef
}

type edgeRef struct {
	step  int
	other db.Const
}

// replay reconstructs a derivation of the solution E: starting from the
// identity, it repeatedly applies rules (restricted to pairs of E) on
// the original database modulo the current relation, recording for every
// newly derived pair the rule, supporting facts, similarity atoms, and
// join dependencies. E must be a solution (or at least a candidate
// solution); otherwise an error is returned.
func (e *Engine) replay(E *eqrel.Partition) (*derivation, error) {
	e.rec.Inc(obs.CoreJustifyReplays, 1)
	d := &derivation{adj: make(map[db.Const][]edgeRef)}
	cur := e.Identity()
	j := e.newRelaxedJoin()
	var rule string
	// keep admits a head pair of E that no earlier step, this stage's
	// included, has merged, so each pair keeps its first derivation.
	keep := func(a, b db.Const) bool { return a != b && !cur.Same(a, b) && E.Same(a, b) }
	record := func(m relaxedMatch) bool {
		s := JustStep{
			Pair:  eqrel.MakePair(m.headA, m.headB),
			Kind:  RuleApp,
			Rule:  rule,
			Facts: m.facts,
			Sims:  m.sims,
			Deps:  m.deps,
		}
		cur.Union(s.Pair.A, s.Pair.B)
		idx := len(d.steps)
		d.steps = append(d.steps, s)
		d.adj[s.Pair.A] = append(d.adj[s.Pair.A], edgeRef{idx, s.Pair.B})
		d.adj[s.Pair.B] = append(d.adj[s.Pair.B], edgeRef{idx, s.Pair.A})
		return true
	}
	for {
		// A stage matches every rule modulo the relation as it was when
		// the stage began.
		j.reset(cur)
		before := len(d.steps)
		for _, r := range e.sess.mergeRules {
			rule = r.Name
			j.matches(r, keep, record)
		}
		if len(d.steps) == before {
			break
		}
	}
	if !cur.Equal(E) {
		return nil, fmt.Errorf("core: replay of %s did not reconstruct the solution (got %s); is it a candidate solution?",
			E, cur)
	}
	return d, nil
}

// Justify returns a Definition-4 justification for the merge (a, b)
// w.r.t. the solution E: a sequence of rule applications and transitive
// steps ending in {a, b}, in which every rule application's join
// dependencies appear earlier. Returns an error when (a, b) ∉ E or the
// replay fails.
func (e *Engine) Justify(E *eqrel.Partition, a, b db.Const) (*Justification, error) {
	sp := e.rec.Start(obs.SpanCoreJustify)
	defer sp.End()
	if a == b {
		return nil, fmt.Errorf("core: cannot justify a reflexive pair")
	}
	if !E.Same(a, b) {
		return nil, fmt.Errorf("core: pair (%d,%d) is not in the solution", a, b)
	}
	d, err := e.replay(E)
	if err != nil {
		return nil, err
	}
	return e.justifyIn(d, eqrel.MakePair(a, b))
}

// justifyIn extracts the justification of p from the replayed
// derivation d of a solution containing it.
func (e *Engine) justifyIn(d *derivation, p eqrel.Pair) (*Justification, error) {
	e.rec.Inc(obs.CoreJustifyChecks, 1)
	j := &Justification{Target: p}
	emitted := make(map[eqrel.Pair]bool)

	// emitPair ensures the pair is justified using only derivation steps
	// with index < bound (math.MaxInt for the target). It returns the
	// last step proving the pair.
	var emitPair func(p eqrel.Pair, bound int) error
	emitStep := func(idx int) error {
		s := d.steps[idx]
		if emitted[s.Pair] {
			return nil
		}
		for _, dep := range s.Deps {
			if err := emitPair(dep, idx); err != nil {
				return err
			}
		}
		// Deps may already have marked the pair emitted via transitivity.
		if !emitted[s.Pair] {
			emitted[s.Pair] = true
			j.Steps = append(j.Steps, s)
		}
		return nil
	}
	emitPair = func(p eqrel.Pair, bound int) error {
		if p.A == p.B || emitted[p] {
			return nil
		}
		path, idxs := d.path(p.A, p.B, bound)
		if path == nil {
			return fmt.Errorf("core: internal error: no derivation path for (%d,%d)", p.A, p.B)
		}
		for _, idx := range idxs {
			if err := emitStep(idx); err != nil {
				return err
			}
		}
		// Chain transitivity along the path.
		prev := eqrel.MakePair(path[0], path[1])
		for i := 2; i < len(path); i++ {
			step := eqrel.MakePair(path[i-1], path[i])
			combined := eqrel.MakePair(path[0], path[i])
			if !emitted[combined] {
				emitted[combined] = true
				j.Steps = append(j.Steps, JustStep{
					Pair: combined, Kind: Transitive, Left: prev, Right: step,
				})
			}
			prev = combined
		}
		emitted[p] = true
		return nil
	}
	if err := emitPair(p, len(d.steps)); err != nil {
		return nil, err
	}
	e.rec.Observe(obs.HistCoreJustifySteps, int64(len(j.Steps)))
	return j, nil
}

// path finds a shortest edge path from a to b using steps with index <
// bound, returning the node sequence and the step index per edge.
func (d *derivation) path(a, b db.Const, bound int) ([]db.Const, []int) {
	if a == b {
		return []db.Const{a}, nil
	}
	type cameFrom struct {
		prev db.Const
		step int
	}
	from := map[db.Const]cameFrom{a: {prev: a, step: -1}}
	queue := []db.Const{a}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range d.adj[n] {
			if e.step >= bound {
				continue
			}
			if _, seen := from[e.other]; seen {
				continue
			}
			from[e.other] = cameFrom{prev: n, step: e.step}
			if e.other == b {
				var nodes []db.Const
				var steps []int
				for cur := b; cur != a; {
					cf := from[cur]
					nodes = append(nodes, cur)
					steps = append(steps, cf.step)
					cur = cf.prev
				}
				nodes = append(nodes, a)
				// reverse
				for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
					nodes[i], nodes[j] = nodes[j], nodes[i]
				}
				for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
					steps[i], steps[j] = steps[j], steps[i]
				}
				return nodes, steps
			}
			queue = append(queue, e.other)
		}
	}
	return nil, nil
}
