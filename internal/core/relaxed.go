package core

import (
	"fmt"
	"slices"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/rules"
	"repro/internal/sim"
)

// SimFact records a similarity atom used by a rule application, over
// original constant names.
type SimFact struct {
	Pred string
	A, B string
}

func (s SimFact) String() string { return fmt.Sprintf("%s(%s,%s)", s.Pred, s.A, s.B) }

// relaxedMatch is one homomorphism of a rule body into the original
// database modulo an equivalence relation E: variable occurrences may
// bind different original constants as long as they are E-equivalent.
// This mirrors the q+ transformation of Section 5.2 and yields exactly
// the ingredients of a Definition-4 rule-application step.
type relaxedMatch struct {
	headA, headB db.Const     // original constants at the head variables
	facts        []db.Fact    // original supporting facts, one per relational atom
	sims         []SimFact    // similarity atoms used
	deps         []eqrel.Pair // previously derived merges joining the facts
}

// relaxedJoin enumerates relaxed matches of rule bodies on the engine's
// original database modulo a snapshot of one equivalence relation E,
// taken by reset. The join is indexed: each relational atom draws its
// candidate tuples from the column index of its first argument that is
// a constant or a variable bound by an earlier atom, over every member
// of that value's E-class, and visits them in ascending tuple position.
// That is exactly the order of a full-table nested loop, so matches
// come out in the same order. Variables live in slots, their original
// occurrences in per-slot stacks, and similarity atoms are checked as
// soon as their variables are bound. The match under construction is
// scratch reused across calls; only a match the caller keeps is copied.
type relaxedJoin struct {
	e *Engine
	// rep, start and members snapshot E: rep[c] is c's representative
	// and members[start[r]:start[r+1]] the ascending members of the
	// class represented by r (empty for non-representatives).
	rep     []db.Const
	start   []int32
	members []db.Const

	// The match under construction.
	p     *relaxedPlan
	bind  []db.Const   // variable slot -> class representative
	occ   [][]db.Const // occurrence slot -> original constants, body order
	facts []db.Fact
	sims  []SimFact
	cand  [][]int32 // per relational atom: merged candidate positions
	keep  func(a, b db.Const) bool
	cb    func(relaxedMatch) bool
}

// relaxedPlan is a rule body compiled for the relaxed join. Occurrence
// slots number the body's variables and constants in order of first
// occurrence among the relational atoms, which fixes the order of the
// join dependencies a match reports.
type relaxedPlan struct {
	rel    []relaxedAtom
	sim    []relaxedSim
	nslots int
	x, y   int // occurrence slots of the head variables
	// simAt[i] lists the similarity atoms whose variables are all bound
	// once relational atom i-1 has matched (simAt[0]: constant-only).
	simAt [][]int
}

type relaxedAtom struct {
	pred string
	args []relaxedArg
	seek int // argument position whose column index seeds the candidates, -1 to scan
}

type relaxedArg struct {
	slot  int
	isVar bool
	cst   db.Const // the constant, when !isVar
	binds bool     // first occurrence of the variable: bind it here
}

type relaxedSim struct {
	pred string
	p    sim.Predicate // nil when unregistered: never holds
	args [2]relaxedArg
}

func (e *Engine) newRelaxedJoin() *relaxedJoin { return &relaxedJoin{e: e} }

// reset snapshots the classes of E; later changes to E are not seen
// until the next reset.
func (j *relaxedJoin) reset(E *eqrel.Partition) {
	n := E.N()
	if cap(j.rep) < n {
		j.rep = make([]db.Const, n)
		j.members = make([]db.Const, n)
		j.start = make([]int32, n+1)
	}
	j.rep, j.members, j.start = j.rep[:n], j.members[:n], j.start[:n+1]
	clear(j.start)
	for c := range j.rep {
		r := E.Rep(db.Const(c))
		j.rep[c] = r
		j.start[r+1]++
	}
	for r := 1; r <= n; r++ {
		j.start[r] += j.start[r-1]
	}
	// Fill in ascending constant order, using start[r] as r's cursor.
	// Afterwards start[r] holds the end of r's block, which is where
	// block r+1 starts, so shifting the offsets up by one restores them.
	for c, r := range j.rep {
		j.members[j.start[r]] = db.Const(c)
		j.start[r]++
	}
	copy(j.start[1:], j.start[:n])
	j.start[0] = 0
}

// class returns the members of the class whose representative is r.
func (j *relaxedJoin) class(r db.Const) []db.Const {
	return j.members[j.start[r]:j.start[r+1]]
}

// relaxedPlanFor returns r's compiled body, compiling it on first use
// into the session's shared plan map.
func (s *Session) relaxedPlanFor(r *rules.Rule) *relaxedPlan {
	if p, ok := s.relaxedPlans.Load(r); ok {
		return p.(*relaxedPlan)
	}
	p, _ := s.relaxedPlans.LoadOrStore(r, compileRelaxed(r, s.sims))
	return p.(*relaxedPlan)
}

// compileRelaxed compiles r's body for the relaxed join, binding each
// similarity atom to its predicate in sims.
func compileRelaxed(r *rules.Rule, sims *sim.Registry) *relaxedPlan {
	p := &relaxedPlan{}
	// Variables are keyed by name, constants by value.
	slots := make(map[any]int)
	boundAt := make(map[string]int) // variable -> relational atom binding it
	slotOf := func(t cq.Term) int {
		key := any(t.Const)
		if t.IsVar {
			key = t.Name
		}
		s, ok := slots[key]
		if !ok {
			s = p.nslots
			slots[key] = s
			p.nslots++
		}
		return s
	}
	var simAtoms []cq.Atom
	for _, a := range r.Body.Atoms {
		if a.Kind != cq.KindRel {
			simAtoms = append(simAtoms, a)
			continue
		}
		i := len(p.rel)
		ra := relaxedAtom{pred: a.Pred, seek: -1}
		for pos, t := range a.Args {
			arg := relaxedArg{slot: slotOf(t), isVar: t.IsVar, cst: t.Const}
			if t.IsVar {
				if _, ok := boundAt[t.Name]; !ok {
					boundAt[t.Name] = i
					arg.binds = true
				}
			}
			if ra.seek < 0 && (!t.IsVar || boundAt[t.Name] < i) {
				ra.seek = pos
			}
			ra.args = append(ra.args, arg)
		}
		p.rel = append(p.rel, ra)
	}
	p.x, p.y = slots[r.X()], slots[r.Y()]
	p.simAt = make([][]int, len(p.rel)+1)
	for k, a := range simAtoms {
		s := relaxedSim{pred: a.Pred}
		if sims != nil {
			s.p, _ = sims.Lookup(a.Pred)
		}
		level := 0
		for i, t := range a.Args {
			s.args[i] = relaxedArg{isVar: t.IsVar, cst: t.Const}
			if t.IsVar {
				// Rule bodies are safe: every similarity variable
				// occurs in a relational atom.
				s.args[i].slot = slots[t.Name]
				level = max(level, boundAt[t.Name]+1)
			}
		}
		p.sim = append(p.sim, s)
		p.simAt[level] = append(p.simAt[level], k)
	}
	return p
}

// matches enumerates the relaxed matches of r's body w.r.t. the
// snapshot taken by reset. keep is asked first with the original
// constants at the head variables; only when it returns true is the
// match copied and passed to cb. cb returning false stops the
// enumeration.
func (j *relaxedJoin) matches(r *rules.Rule, keep func(a, b db.Const) bool, cb func(relaxedMatch) bool) {
	p := j.e.sess.relaxedPlanFor(r)
	j.p, j.keep, j.cb = p, keep, cb
	j.bind = slices.Grow(j.bind[:0], p.nslots)[:p.nslots]
	for len(j.occ) < p.nslots {
		j.occ = append(j.occ, nil)
	}
	for len(j.cand) < len(p.rel) {
		j.cand = append(j.cand, nil)
	}
	j.facts = slices.Grow(j.facts[:0], len(p.rel))[:len(p.rel)]
	j.sims = slices.Grow(j.sims[:0], len(p.sim))[:len(p.sim)]
	if j.checkSims(0) {
		j.match(0)
	}
}

// match extends the match under construction with relational atom i
// and everything after it. It returns false to stop the enumeration.
func (j *relaxedJoin) match(i int) bool {
	p := j.p
	if i == len(p.rel) {
		return j.emit()
	}
	a := &p.rel[i]
	table := j.e.sess.d.Table(a.pred)
	if table == nil {
		return true
	}
	tuples := table.Tuples()
	if a.seek < 0 {
		for pos := range tuples {
			if !j.try(i, tuples[pos]) {
				return false
			}
		}
		return true
	}
	for _, pos := range j.candidates(i, table) {
		if !j.try(i, tuples[pos]) {
			return false
		}
	}
	return true
}

// candidates returns the positions, ascending, of the tuples of table
// whose seek column holds a member of the class of atom i's seek value.
func (j *relaxedJoin) candidates(i int, table *db.Table) []int32 {
	a := &j.p.rel[i]
	arg := a.args[a.seek]
	r := j.bind[arg.slot]
	if !arg.isVar {
		r = j.rep[arg.cst]
	}
	cls := j.class(r)
	if len(cls) == 1 {
		return table.Lookup(a.seek, cls[0])
	}
	buf := j.cand[i][:0]
	for _, m := range cls {
		buf = append(buf, table.Lookup(a.seek, m)...)
	}
	slices.Sort(buf)
	j.cand[i] = buf
	return buf
}

// try matches relational atom i against tup and, on success, recurses
// into atom i+1. It returns false to stop the enumeration.
func (j *relaxedJoin) try(i int, tup []db.Const) bool {
	a := &j.p.rel[i]
	for pos, arg := range a.args {
		r := j.rep[tup[pos]]
		switch {
		case !arg.isVar:
			if r != j.rep[arg.cst] {
				return true
			}
		case arg.binds:
			j.bind[arg.slot] = r
		case j.bind[arg.slot] != r:
			return true
		}
	}
	if !j.checkSims(i + 1) {
		return true
	}
	for pos, arg := range a.args {
		if arg.isVar {
			j.occ[arg.slot] = append(j.occ[arg.slot], tup[pos])
		} else if tup[pos] != arg.cst {
			// A body constant matched a merged variant: that merge
			// is a dependency of the application, like a
			// shared-variable join.
			j.occ[arg.slot] = append(j.occ[arg.slot], arg.cst, tup[pos])
		}
	}
	j.facts[i] = db.Fact{Rel: a.pred, Args: tup}
	cont := j.match(i + 1)
	for pos, arg := range a.args {
		if arg.isVar {
			j.occ[arg.slot] = j.occ[arg.slot][:len(j.occ[arg.slot])-1]
		} else if tup[pos] != arg.cst {
			j.occ[arg.slot] = j.occ[arg.slot][:len(j.occ[arg.slot])-2]
		}
	}
	return cont
}

// checkSims evaluates the similarity atoms that become fully bound once
// i relational atoms have matched, recording each in its body slot.
func (j *relaxedJoin) checkSims(i int) bool {
	in := j.e.sess.d.Interner()
	for _, k := range j.p.simAt[i] {
		s := &j.p.sim[k]
		var vals [2]db.Const
		for n, arg := range s.args {
			if arg.isVar {
				vals[n] = j.bind[arg.slot]
			} else {
				vals[n] = arg.cst
			}
		}
		// Sim-safety guarantees the bound representatives are original
		// values (sim attributes never merge), so evaluating the
		// predicate on the representative names is faithful.
		na, nb := in.Name(vals[0]), in.Name(vals[1])
		if s.p == nil || !s.p.Holds(na, nb) {
			return false
		}
		j.sims[k] = SimFact{Pred: s.pred, A: na, B: nb}
	}
	return true
}

// emit hands a complete match to the callbacks: the head pair to keep,
// then, if kept, a copy of the match to cb.
func (j *relaxedJoin) emit() bool {
	p := j.p
	headA, headB := j.occ[p.x][0], j.occ[p.y][0]
	if !j.keep(headA, headB) {
		return true
	}
	m := relaxedMatch{
		headA: headA,
		headB: headB,
		facts: append([]db.Fact(nil), j.facts...),
		sims:  append([]SimFact(nil), j.sims...),
	}
	for _, occ := range j.occ[:p.nslots] {
		for a := 0; a < len(occ); a++ {
			for b := a + 1; b < len(occ); b++ {
				if occ[a] != occ[b] {
					if pr := eqrel.MakePair(occ[a], occ[b]); !slices.Contains(m.deps, pr) {
						m.deps = append(m.deps, pr)
					}
				}
			}
		}
	}
	return j.cb(m)
}
