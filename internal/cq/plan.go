package cq

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Plan is a prepared evaluation plan for a conjunction of atoms with a
// head projection. Preparation (variable numbering, greedy atom
// ordering, filter scheduling, safety checks, the bind/check layout of
// every step) happens once; the plan binds to a database only at run
// time, so one plan can be cached per rule or denial and reused against
// every induced database the dynamic semantics visits. Similarity atoms
// are bound to their predicates at Prepare. Plans are immutable after
// Prepare and safe to share across goroutines.
type Plan struct {
	atoms   []Atom
	head    []string
	varIdx  map[string]int
	headIdx []int
	// steps is the execution order, each atom compiled down to integer
	// variable slots so the join loop never touches variable names.
	steps []planStep
	// relAtoms lists the indexes of the relational atoms, in atom order.
	relAtoms []int
	// nconst counts constant arguments (see planArg.ci).
	nconst int
	// layout is the per-step bind/check layout of a run with no
	// pre-bound variables.
	layout []stepLayout
	// pivots[k] is the join order a delta run uses for the split whose
	// delta atom is relAtoms[k]: that atom first, then the greedy order.
	pivots []pivotOrder
	// unordered is the join order with the mirror filter on the two
	// head slots, which runs that set RunSpec.Unordered take; each pivot
	// order has its own. It is nil unless the body is symmetric in the
	// head variables (see symmetricHead).
	unordered *pivotOrder
	// repFilter reports that a similarity or inequality atom has a
	// constant argument (see RepFilter).
	repFilter bool
	// execs recycles execution states, so a run allocates nothing once
	// the pool is warm.
	execs sync.Pool
}

// pivotOrder is one delta-first variant of a plan's join order.
type pivotOrder struct {
	steps  []planStep
	layout []stepLayout
	// unordered is the same order with the mirror filter; nil when the
	// plan records no mirror slots.
	unordered *pivotOrder
}

// kindMirror marks the compiled mirror filter, which keeps a partial
// match only while its x value is below its y value. It is never the
// kind of an atom.
const kindMirror Kind = -1

// planArg is one compiled atom argument: a binding slot for variables,
// an inline constant otherwise.
type planArg struct {
	vi int // binding slot, or -1 for a constant
	c  db.Const
	ci int // index of the constant's run-time value in exec.consts
}

type planStep struct {
	atom int // index into Plan.atoms
	kind Kind
	pred string
	args []planArg
	// sim is a similarity step's predicate; nil (an unregistered
	// predicate or a nil registry) never matches.
	sim sim.Predicate
}

// stepLayout is what a relational step does with each argument, fixed
// by which variables are bound when the step starts: those and the
// constants are checked against a candidate tuple (and can select an
// index), while the first occurrence of every other variable binds it.
// A repeated variable such as R(x,x) binds at its first position and
// is checked at the later ones.
type stepLayout struct {
	bind   []bool // per argument: bind rather than check
	binds  []int  // slots the step binds, reset after each tuple
	probes []int  // argument positions known at step entry
}

// layoutFor computes the per-step layout of steps for a run in which
// the slots marked in bound are set before the first step. The layouts'
// slices share two backing arrays.
func layoutFor(steps []planStep, bound []bool) []stepLayout {
	bound = append([]bool(nil), bound...)
	nargs := 0
	for _, st := range steps {
		nargs += len(st.args)
	}
	flags := make([]bool, nargs)
	slots := make([]int, 0, nargs)
	out := make([]stepLayout, len(steps))
	for i, st := range steps {
		if st.kind != KindRel {
			continue
		}
		ly := &out[i]
		ly.bind, flags = flags[:len(st.args):len(st.args)], flags[len(st.args):]
		start := len(slots)
		for k, ag := range st.args {
			if ag.vi < 0 || bound[ag.vi] {
				slots = append(slots, k)
			}
		}
		ly.probes = slots[start:len(slots):len(slots)]
		start = len(slots)
		for k, ag := range st.args {
			if ag.vi >= 0 && !bound[ag.vi] && !slices.Contains(slots[start:], ag.vi) {
				ly.bind[k] = true
				slots = append(slots, ag.vi)
			}
		}
		ly.binds = slots[start:len(slots):len(slots)]
		for _, vi := range ly.binds {
			bound[vi] = true
		}
	}
	return out
}

// Prepare compiles atoms with the given head projection into a Plan.
// Ordering is greedy and database-independent: repeatedly pick the
// relational atom with the most bound variables (ties: fewer arguments,
// a static proxy for selectivity; then atom order), scheduling
// similarity and inequality filters as soon as their variables are
// bound. Each relational atom also gets a delta-first variant of that
// order, which delta runs use. A non-nil schema enables relation/arity
// checking; safety violations (variables never bound by a relational
// atom, head variables missing from the body) are reported as errors.
// Each similarity atom's predicate is looked up in sims once, here.
func Prepare(atoms []Atom, head []string, schema *db.Schema, sims *sim.Registry) (*Plan, error) {
	p := &Plan{atoms: atoms, head: head, varIdx: make(map[string]int)}
	for _, a := range atoms {
		if a.Kind == KindRel && schema != nil {
			r, ok := schema.Relation(a.Pred)
			if !ok {
				return nil, fmt.Errorf("cq: undeclared relation %q", a.Pred)
			}
			if len(a.Args) != r.Arity() {
				return nil, fmt.Errorf("cq: %s has arity %d, atom has %d arguments", a.Pred, r.Arity(), len(a.Args))
			}
		}
		for _, t := range a.Args {
			if t.IsVar {
				if _, ok := p.varIdx[t.Name]; !ok {
					p.varIdx[t.Name] = len(p.varIdx)
				}
			}
		}
	}
	p.headIdx = make([]int, len(head))
	for i, h := range head {
		idx, ok := p.varIdx[h]
		if !ok {
			return nil, fmt.Errorf("cq: head variable %q not in body", h)
		}
		p.headIdx[i] = idx
	}

	// Compile every atom once, in atom order; the orders below are
	// permutations of these steps.
	compiled := make([]planStep, len(atoms))
	for i, a := range atoms {
		if a.Kind == KindRel {
			p.relAtoms = append(p.relAtoms, i)
		}
		st := planStep{atom: i, kind: a.Kind, pred: a.Pred, args: make([]planArg, len(a.Args))}
		if a.Kind == KindSim && sims != nil {
			st.sim, _ = sims.Lookup(a.Pred)
		}
		for k, t := range a.Args {
			if t.IsVar {
				st.args[k] = planArg{vi: p.varIdx[t.Name]}
			} else {
				st.args[k] = planArg{vi: -1, c: t.Const, ci: p.nconst}
				p.nconst++
				p.repFilter = p.repFilter || a.Kind != KindRel
			}
		}
		compiled[i] = st
	}
	order := greedyOrder(atoms, -1)
	if len(order) < len(atoms) {
		for i, a := range atoms {
			if !slices.Contains(order, i) {
				return nil, fmt.Errorf("cq: unsafe atom %s: variables never bound by a relational atom", a)
			}
		}
	}
	stepsOf := func(order []int) []planStep {
		steps := make([]planStep, len(order))
		for i, a := range order {
			steps[i] = compiled[a]
		}
		return steps
	}
	p.steps = stepsOf(order)
	none := make([]bool, len(p.varIdx))
	p.layout = layoutFor(p.steps, none)
	symmetric := symmetricHead(compiled, p.headIdx, len(p.varIdx))
	unordered := func(steps []planStep) *pivotOrder {
		if !symmetric {
			return nil
		}
		steps = withMirror(steps, p.headIdx[0], p.headIdx[1])
		return &pivotOrder{steps: steps, layout: layoutFor(steps, none)}
	}
	p.unordered = unordered(p.steps)
	p.pivots = make([]pivotOrder, len(p.relAtoms))
	for k, a := range p.relAtoms {
		steps := stepsOf(greedyOrder(atoms, a))
		p.pivots[k] = pivotOrder{steps: steps, layout: layoutFor(steps, none), unordered: unordered(steps)}
	}
	return p, nil
}

// mirrorBudget bounds the candidate atom pairings symmetricHead tries, so
// a large body of same-relation atoms costs Prepare a bounded search
// (and, when the bound is hit, only the pruning).
const mirrorBudget = 1 << 12

// symmetricHead reports whether the head is two distinct variables
// (x, y) and the body maps onto itself under a variable map π with
// π(x) = y and π(y) = x that sends distinct atoms to distinct atoms.
// Constants map to themselves, and a similarity or
// inequality atom may map onto its target with the arguments swapped,
// as both are symmetric. If μ is a match, so is μ∘π: it uses the same
// tuples and reports the head (μ(y), μ(x)). Keeping only the matches
// whose x value is below their y value therefore loses no unordered
// pair of distinct head values, in a full run or in any delta split.
func symmetricHead(atoms []planStep, headIdx []int, nvars int) bool {
	if len(headIdx) != 2 || headIdx[0] == headIdx[1] {
		return false
	}
	x, y := headIdx[0], headIdx[1]
	pi := make([]int, nvars)
	for i := range pi {
		pi[i] = -1
	}
	pi[x], pi[y] = y, x
	used := make([]bool, len(atoms))
	budget := mirrorBudget
	var set []int // variables mapped by the pairing under test
	var mapFrom func(i int) bool
	mapFrom = func(i int) bool {
		if i == len(atoms) {
			return true
		}
		a := &atoms[i]
		swaps := 1
		if a.kind != KindRel && len(a.args) == 2 {
			swaps = 2
		}
		for j := range atoms {
			b := &atoms[j]
			if used[j] || b.kind != a.kind || b.pred != a.pred || len(b.args) != len(a.args) {
				continue
			}
			for sw := 0; sw < swaps; sw++ {
				if budget--; budget < 0 {
					return false
				}
				mark := len(set)
				ok := true
				for k, ag := range a.args {
					bg := b.args[k]
					if sw == 1 {
						bg = b.args[1-k]
					}
					switch {
					case ag.vi < 0 || bg.vi < 0:
						ok = ag.vi == bg.vi && ag.c == bg.c
					case pi[ag.vi] < 0:
						pi[ag.vi] = bg.vi
						set = append(set, ag.vi)
					default:
						ok = pi[ag.vi] == bg.vi
					}
					if !ok {
						break
					}
				}
				if ok {
					used[j] = true
					if mapFrom(i + 1) {
						return true
					}
					used[j] = false
				}
				for _, v := range set[mark:] {
					pi[v] = -1
				}
				set = set[:mark]
			}
		}
		return false
	}
	return mapFrom(0)
}

// withMirror returns a copy of steps with the mirror filter on slots x
// and y placed directly after the relational step that binds the second
// of them, ahead of the filters scheduled there, so every step before
// it runs as in the plain order.
func withMirror(steps []planStep, x, y int) []planStep {
	var boundX, boundY bool
	for i, st := range steps {
		if st.kind != KindRel {
			continue
		}
		for _, ag := range st.args {
			boundX = boundX || ag.vi == x
			boundY = boundY || ag.vi == y
		}
		if boundX && boundY {
			out := make([]planStep, 0, len(steps)+1)
			out = append(out, steps[:i+1]...)
			out = append(out, planStep{atom: -1, kind: kindMirror, args: []planArg{{vi: x}, {vi: y}}})
			return append(out, steps[i+1:]...)
		}
	}
	panic("cq: mirror slots never bound") // Prepare rejects unsafe heads
}

// greedyOrder returns the atom indexes in Prepare's join order, starting
// with relational atom first when first >= 0. Atoms that never become
// schedulable (unsafe ones) are left out.
func greedyOrder(atoms []Atom, first int) []int {
	order := make([]int, 0, len(atoms))
	bound := make(map[string]bool)
	used := make([]bool, len(atoms))
	schedule := func(i int) {
		used[i] = true
		order = append(order, i)
	}
	scheduleFilters := func() {
		// Deterministic order: ascending atom index.
		for i, a := range atoms {
			if used[i] || a.Kind == KindRel {
				continue
			}
			ok := true
			for _, t := range a.Args {
				if t.IsVar && !bound[t.Name] {
					ok = false
					break
				}
			}
			if ok {
				schedule(i)
			}
		}
	}
	scheduleRel := func(i int) {
		schedule(i)
		for _, t := range atoms[i].Args {
			if t.IsVar {
				bound[t.Name] = true
			}
		}
		scheduleFilters()
	}
	scheduleFilters()
	if first >= 0 {
		scheduleRel(first)
	}
	for {
		best, bestBound, bestArity := -1, -1, 0
		for i, a := range atoms {
			if used[i] || a.Kind != KindRel {
				continue
			}
			nb := 0
			for _, t := range a.Args {
				if !t.IsVar || bound[t.Name] {
					nb++
				}
			}
			if nb > bestBound || nb == bestBound && (best == -1 || len(a.Args) < bestArity) {
				best, bestBound, bestArity = i, nb, len(a.Args)
			}
		}
		if best == -1 {
			return order
		}
		scheduleRel(best)
	}
}

// Head returns the plan's head projection.
func (p *Plan) Head() []string { return p.head }

// Symmetric reports whether Prepare recorded mirror slots: the head is
// two distinct variables (x, y) and the body maps onto itself with x
// and y swapped, so runs that set RunSpec.Unordered prune mirror
// matches.
func (p *Plan) Symmetric() bool { return p.unordered != nil }

// RepFilter reports whether a similarity or inequality atom of the body
// has a constant argument. A change of RunSpec.Rep can flip such a
// filter with no tuple changed, so after a merge a delta run of the
// plan may miss new matches: a caller that reruns the plan after a
// merge runs it in full instead.
func (p *Plan) RepFilter() bool { return p.repFilter }

// RunSpec configures one execution of a prepared plan. The zero value
// is a plain uninstrumented run.
type RunSpec struct {
	// Rec receives the cq.eval.* counters; nil means no instrumentation.
	Rec obs.Recorder
	// Rep, when non-nil, remaps every constant atom argument at match
	// time (tuple values are untouched). This is how one cached plan
	// serves every induced database D_E: the core engine passes the
	// representative function of E instead of rewriting body constants
	// per state.
	Rep func(c db.Const) db.Const
	// Bind pre-binds variables to constants before evaluation starts,
	// turning them into constants for index selection. Variables absent
	// from the plan are ignored.
	Bind map[string]db.Const
	// Delta, when non-nil, restricts Run to the matches that use at
	// least one tuple it marks (see Run). Holds ignores it.
	Delta *Delta
	// Unordered declares that the caller reads each answer as an
	// unordered pair of distinct constants: it drops (a,a) and takes
	// (a,b) and (b,a) for one answer. On a Symmetric plan the run then
	// enumerates only the matches whose first head value is below the
	// second, which leaves the set of such pairs unchanged and prunes
	// every mirror and reflexive match. Holds ignores it, and so does a
	// run whose Bind pre-binds a plan variable (a bound x would lose its
	// answers (x, c) with c below x).
	Unordered bool
}

// Holds reports whether the plan has at least one homomorphism into d
// under the given RunSpec (Boolean satisfiability; stops at the first
// match).
func (p *Plan) Holds(d *db.Database, rs RunSpec) bool {
	rec := obs.OrNop(rs.Rec)
	rec.Inc(obs.CQEvalCalls, 1)
	rs.Unordered = false
	ex := p.getExec(d, rs)
	ex.run(0) // no callback: the first match stops the run
	found := ex.matches > 0
	rec.Inc(obs.CQEvalMatches, ex.matches)
	p.putExec(ex)
	return found
}

// Delta holds the touched tuples of one semi-naive round: for every
// relation, which tuples contain a touched constant, as marks and as an
// ascending row list. It is computed once per round with NewDelta and
// shared by every plan's delta run in that round.
type Delta struct {
	// marks[rel][i] reports whether tuple i of rel contains a touched
	// constant and rows[rel] lists those i; relations without any
	// touched tuple have no entry.
	marks map[string][]bool
	rows  map[string][]int32
}

// NewDelta marks every tuple of d that holds a touched constant. The
// rows come from the dense column indexes (db.Table.RowsHolding), so a
// round costs in proportion to the touched rows, not to the database.
// touched may hold duplicates, NoConst and ids no tuple holds.
func NewDelta(d *db.Database, touched []db.Const) *Delta {
	delta := &Delta{marks: make(map[string][]bool), rows: make(map[string][]int32)}
	if len(touched) == 0 {
		return delta
	}
	for _, r := range d.Schema().Relations() {
		t := d.Table(r.Name)
		if t == nil {
			continue
		}
		rows := t.RowsHolding(touched)
		if len(rows) == 0 {
			continue
		}
		m := make([]bool, t.Len())
		for _, ti := range rows {
			m[ti] = true
		}
		delta.marks[r.Name] = m
		delta.rows[r.Name] = rows
	}
	return delta
}

// Touch marks the tuples of relation rel at the given positions of d
// (any order, duplicates allowed) as touched too, for a round whose
// changed tuples are known by position rather than by a constant.
func (dl *Delta) Touch(d *db.Database, rel string, rows []int32) {
	t := d.Table(rel)
	if t == nil || len(rows) == 0 {
		return
	}
	m := dl.marks[rel]
	if m == nil {
		m = make([]bool, t.Len())
		dl.marks[rel] = m
	}
	all := slices.Clone(dl.rows[rel]) // may be shared with an index
	for _, ti := range rows {
		if !m[ti] {
			m[ti] = true
			all = append(all, ti)
		}
	}
	slices.Sort(all)
	dl.rows[rel] = all
}

// Run enumerates the matches of the plan's atoms into d under rs,
// calling cb with the head bindings of each; cb returning false stops
// the enumeration. With a nil rs.Delta every homomorphism is a match.
// With a non-nil one, exactly the homomorphisms that use at least one
// touched tuple of the delta are, each reported once. The recorder's
// cq.eval.calls counter advances once per run and cq.eval.matches by
// the number of matches enumerated (after the mirror pruning of an
// Unordered run). The ans slice is reused between calls; callers must
// copy it to retain it.
//
// A delta run is the semi-naive primitive of the fixpoint loops: when
// D_{E'} is derived from D_E by merging classes, every tuple of
// D_{E'} \ D_E contains the surviving representative of a merged
// class, so seeding evaluation from the touched representatives finds
// every match that is new in D_{E'} — rule bodies are negation-free,
// hence old matches never need re-deriving (but see RepFilter).
// Implemented by the standard split, one run per relational atom p in
// atom order: p ranges over its touched tuples only, earlier atoms over
// untouched ones and later atoms over all, which partitions the
// qualifying matches by their first touched atom. Each split runs p's
// delta-first join order, so it starts from the delta rows and pays for
// the delta, not the database. An Unordered run prunes mirror matches
// in every split: a match and its mirror use the same tuples, so they
// fall in the same split.
func (p *Plan) Run(d *db.Database, rs RunSpec, cb func(ans []db.Const) bool) {
	rec := obs.OrNop(rs.Rec)
	rec.Inc(obs.CQEvalCalls, 1)
	ex := p.getExec(d, rs)
	ex.cb = cb
	if rs.Delta == nil {
		ex.run(0)
	} else {
		ex.runDelta(rs.Delta)
	}
	rec.Inc(obs.CQEvalMatches, ex.matches)
	p.putExec(ex)
}

// runDelta runs the delta-first splits of a delta run.
func (e *exec) runDelta(delta *Delta) {
	p := e.p
	if e.modeBuf == nil {
		e.modeBuf = make([]int8, len(p.atoms))
		e.markBuf = make([][]bool, len(p.atoms))
	}
	e.modes, e.markOf = e.modeBuf, e.markBuf
	for _, a := range p.relAtoms {
		e.markOf[a] = delta.marks[p.atoms[a].Pred]
	}
	for k, a := range p.relAtoms {
		e.rows = delta.rows[p.atoms[a].Pred]
		if len(e.rows) == 0 {
			continue // no touched tuple can seed this split
		}
		for j, b := range p.relAtoms {
			switch {
			case j < k:
				e.modes[b] = modeClean
			case j == k:
				e.modes[b] = modeDelta
			default:
				e.modes[b] = modeAny
			}
		}
		po := &p.pivots[k]
		if e.unordered {
			po = po.unordered
		}
		e.steps, e.layout = po.steps, po.layout
		if e.bound != nil {
			e.layout = layoutFor(po.steps, e.bound)
		}
		if !e.run(0) {
			return
		}
	}
}

// Execution-time restrictions on relational atoms in a delta run.
const (
	modeAny   int8 = iota // no restriction
	modeClean             // only tuples without touched constants
	modeDelta             // only tuples with at least one touched constant
)

// exec is the state of one backtracking-join execution of a plan. The
// database's tables and the run-time value of every constant argument
// are resolved once at the start of a run, so the join loop performs no
// string-keyed lookups and no allocation. Execs are recycled through
// Plan.execs.
type exec struct {
	p      *Plan
	in     *db.Interner
	steps  []planStep
	layout []stepLayout
	// bound marks the variables RunSpec.Bind pre-binds (nil for none).
	bound []bool
	// unordered reports that the run takes the mirror-filtered orders.
	unordered bool

	tables []*db.Table // per atom (nil for non-relational atoms)
	consts []db.Const  // per constant argument, after RunSpec.Rep

	binding []db.Const
	ans     []db.Const
	// Delta-run restrictions, per atom (nil for ordinary runs): the mode
	// and the touched-tuple marks of its relation; rows lists the
	// touched tuples of the split's delta atom. modeBuf and markBuf are
	// the recycled backings of modes and markOf.
	modes   []int8
	markOf  [][]bool
	rows    []int32
	modeBuf []int8
	markBuf [][]bool

	// cb receives each match; without one, the first match stops the
	// run (Holds).
	cb      func(ans []db.Const) bool
	matches int64
}

// getExec returns an exec bound to d and rs, recycled from the plan's
// pool when one is free.
func (p *Plan) getExec(d *db.Database, rs RunSpec) *exec {
	ex, _ := p.execs.Get().(*exec)
	if ex == nil {
		n, nv := len(p.atoms), len(p.varIdx)
		vals := make([]db.Const, p.nconst+nv+len(p.head))
		ex = &exec{
			p:       p,
			tables:  make([]*db.Table, n),
			consts:  vals[:p.nconst:p.nconst],
			binding: vals[p.nconst : p.nconst+nv : p.nconst+nv],
			ans:     vals[p.nconst+nv:],
		}
	}
	ex.in = d.Interner()
	for i := range p.steps {
		st := &p.steps[i]
		if st.kind == KindRel {
			ex.tables[st.atom] = d.Table(st.pred)
		}
		for _, ag := range st.args {
			if ag.vi < 0 {
				v := ag.c
				if rs.Rep != nil {
					v = rs.Rep(v)
				}
				ex.consts[ag.ci] = v
			}
		}
	}
	for i := range ex.binding {
		ex.binding[i] = db.NoConst
	}
	ex.steps, ex.layout = p.steps, p.layout
	for v, c := range rs.Bind {
		if vi, ok := p.varIdx[v]; ok && c != db.NoConst {
			ex.binding[vi] = c
			if ex.bound == nil {
				ex.bound = make([]bool, len(ex.binding))
			}
			ex.bound[vi] = true
		}
	}
	if ex.bound != nil {
		ex.layout = layoutFor(p.steps, ex.bound)
	}
	if ex.unordered = rs.Unordered && p.unordered != nil && ex.bound == nil; ex.unordered {
		ex.steps, ex.layout = p.unordered.steps, p.unordered.layout
	}
	return ex
}

// putExec drops ex's references to the run's data and returns it to
// the pool.
func (p *Plan) putExec(ex *exec) {
	clear(ex.tables)
	clear(ex.markBuf)
	ex.in, ex.steps, ex.layout, ex.bound, ex.unordered = nil, nil, nil, nil, false
	ex.modes, ex.markOf, ex.rows = nil, nil, nil
	ex.cb, ex.matches = nil, 0
	p.execs.Put(ex)
}

func (e *exec) argVal(a planArg) db.Const {
	if a.vi >= 0 {
		return e.binding[a.vi]
	}
	return e.consts[a.ci]
}

// emit handles one complete match.
func (e *exec) emit() bool {
	e.matches++
	if e.cb == nil {
		return false
	}
	for i, vi := range e.p.headIdx {
		e.ans[i] = e.binding[vi]
	}
	return e.cb(e.ans)
}

// run enumerates homomorphisms from step `step` of the run's join
// order onward; it returns false when the callback stopped the
// enumeration.
func (e *exec) run(step int) bool {
	if step == len(e.steps) {
		return e.emit()
	}
	st := &e.steps[step]
	if st.kind != KindRel {
		// A filter over two bound values.
		x, y := e.argVal(st.args[0]), e.argVal(st.args[1])
		var ok bool
		switch st.kind {
		case KindSim:
			// An unknown predicate (or a nil registry) never matches.
			ok = st.sim != nil && st.sim.Holds(e.in.Name(x), e.in.Name(y))
		case KindNeq:
			ok = x != y
		default: // kindMirror
			ok = x < y
		}
		if !ok {
			return true
		}
		return e.run(step + 1)
	}
	// Relational atom: take candidates from the most selective index
	// over the positions known at entry, else scan.
	table := e.tables[st.atom]
	if table == nil {
		return true // empty relation: no matches
	}
	ly := &e.layout[step]
	// A nil mark slice means the relation has no touched tuples: all
	// clean, none delta.
	var mode int8
	var mark []bool
	if e.modes != nil {
		mode, mark = e.modes[st.atom], e.markOf[st.atom]
	}
	tuples := table.Tuples()
	var list []int32
	for i, k := range ly.probes {
		if l := table.Lookup(k, e.argVal(st.args[k])); i == 0 || len(l) < len(list) {
			list = l
		}
	}
	if mode == modeDelta && (len(ly.probes) == 0 || len(e.rows) <= len(list)) {
		// The split's delta atom: only its touched rows qualify, and
		// try checks the known positions.
		for _, ti := range e.rows {
			if !e.try(step, st, ly, tuples[ti]) {
				return false
			}
		}
		return true
	}
	skip := func(ti int) bool {
		return mode == modeClean && mark != nil && mark[ti] ||
			mode == modeDelta && !mark[ti]
	}
	if len(ly.probes) > 0 {
		for _, ti := range list {
			if !skip(int(ti)) && !e.try(step, st, ly, tuples[ti]) {
				return false
			}
		}
		return true
	}
	for ti, tup := range tuples {
		if !skip(ti) && !e.try(step, st, ly, tup) {
			return false
		}
	}
	return true
}

// try matches tup against relational step st: it binds the step's free
// variables, checks every other argument and, on success, continues
// with the next step. It returns false when the callback stopped the
// enumeration.
func (e *exec) try(step int, st *planStep, ly *stepLayout, tup []db.Const) bool {
	cont := true
	ok := true
	for k, ag := range st.args {
		if ly.bind[k] {
			e.binding[ag.vi] = tup[k]
		} else if tup[k] != e.argVal(ag) {
			ok = false
			break
		}
	}
	if ok {
		cont = e.run(step + 1)
	}
	for _, vi := range ly.binds {
		e.binding[vi] = db.NoConst
	}
	return cont
}
