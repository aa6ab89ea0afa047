package asp

// sat.go implements a conflict-driven clause-learning (CDCL)
// satisfiability solver — two watched literals, first-UIP conflict
// analysis with learned-clause recording, EVSIDS decaying-activity
// branching, Luby-sequence restarts, and learned-clause deletion by
// LBD/activity — used as the search core of the stable-model solver.
// It supports incremental clause addition between Solve calls and
// solving under assumptions, which is all the assat-style pipeline
// needs; learned clauses are entailed by the clause set and therefore
// survive both new clauses and changing assumptions.
//
// # The canonical-model contract
//
// The pre-CDCL DPLL engine (preserved verbatim as
// internal/asp/dpllref) decided the lowest-numbered unassigned
// variable at its preferred phase and backtracked chronologically, so
// the model it returned was the lexicographically optimal one: among
// all models consistent with the assumptions, the one that agrees with
// the preferred phase (SetPhase) on the lowest-numbered variable
// possible, then the next, and so on. Blocking-clause enumeration
// order throughout the stable-model pipeline is pinned to exactly that
// model sequence.
//
// CDCL preserves it by construction. Solve is adaptive:
//
//  1. a canonical pass — decisions forced to the DPLL order (lowest
//     unassigned variable, preferred phase), no restarts — runs first,
//     capped at stallCap conflicts. The vast majority of the pipeline's
//     solves (completion models, enumeration steps, easy probes) finish
//     here in a single pass with no overhead beyond learning itself;
//  2. if the canonical pass stalls, a probe pass — EVSIDS branching,
//     saved phases, Luby restarts — runs to a verdict with the search
//     freedom hard instances need. UNSAT ends the solve (refutations
//     dominate the maximality iteration); SAT re-runs the canonical
//     pass without a cap, now steered by every clause the probe
//     learned.
//
// A CDCL search whose decisions follow a fixed variable order and
// polarity returns the lexicographically optimal model regardless of
// learning, backjumping or deletion: suppose the returned model M were
// beaten by a model M' and take the first literal of the final trail
// that M' falsifies. It cannot be a propagation (its reason clause is
// entailed, and M' satisfies every earlier trail literal, so M' would
// have to satisfy the propagated literal too), so it is a decision —
// but a decision assigns the lowest unassigned variable its preferred
// phase, and M' agreeing on every earlier variable yet differing here
// means M beats M' at the first difference, a contradiction. Both
// phases are fully deterministic (activity ties break toward the lower
// variable index), so two solvers holding the same clauses in the same
// insertion order return the same models in the same order on every
// run — the determinism contract Enumerate documents.

import (
	"sort"
	"time"

	"repro/internal/limits"
	"repro/internal/obs"
)

// Lit is a CNF literal: variable v (0-based) is encoded as v+1 when
// positive and -(v+1) when negated.
type Lit int

// MkLit builds a literal for var v with the given sign.
func MkLit(v int, positive bool) Lit {
	if positive {
		return Lit(v + 1)
	}
	return Lit(-(v + 1))
}

// Var returns the 0-based variable of the literal.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l) - 1
	}
	return int(l) - 1
}

// Positive reports the literal's sign.
func (l Lit) Positive() bool { return l > 0 }

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return -l }

// widx indexes the watch lists: 2v for the positive literal of
// variable v, 2v+1 for the negative one.
func widx(l Lit) int {
	if l > 0 {
		return 2 * (int(l) - 1)
	}
	return 2*(int(-l)-1) + 1
}

// clause is one stored clause. The first two literals are the watched
// pair; propagation maintains the invariant that a clause visited
// through a falsified watch has that watch at position 1 and the
// possibly-implied literal at position 0, so a clause acting as a
// reason keeps its implied literal at position 0.
type clause struct {
	lits    []Lit
	act     float64 // bumped when the clause resolves a conflict
	id      uint64  // allocation order: the deterministic tie-break
	lbd     int32   // literal block distance at learning time
	learned bool
}

// Solver states returned by search.
const (
	stUNSAT int8 = -1
	stStall int8 = 0 // canonical pass hit its conflict cap without a verdict
	stSAT   int8 = 1
)

// EVSIDS/deletion tuning. All growth is deterministic; floating-point
// activities are rescaled at fixed thresholds, which preserves their
// relative order exactly.
const (
	varIncGrowth  = 1 / 0.95  // per-conflict variable activity inflation
	claIncGrowth  = 1 / 0.999 // per-conflict clause activity inflation
	varActRescale = 1e100
	claActRescale = 1e20
	// defaultRestartBase is the conflict count of the first Luby
	// segment in the probe pass.
	defaultRestartBase = 64
	// defaultStallCap is how many conflicts the initial canonical pass
	// may spend before the solve falls back to the probe pass. High
	// enough that realistic pipeline solves never stall (they rarely
	// see more than a few dozen conflicts), low enough that a hard
	// instance reaches activity-directed search quickly.
	defaultStallCap = 512
	// maxRestarts is a termination failsafe: past it the probe phase
	// runs restart-free (restart-free CDCL terminates under any
	// deletion policy; the Luby intervals are already huge by then).
	maxRestarts = 4096
)

// Solver is a CDCL SAT solver. The zero value is not usable; create
// one with NewSolver.
type Solver struct {
	nvars   int
	clauses []*clause // problem clauses in AddClause order (units included)
	learnts []*clause // learned clauses with at least two literals
	units   []Lit     // unit problem clauses plus learned (entailed) units
	watches [][]*clause
	empty   bool // an empty clause was added
	unsat   bool // a root-level conflict was derived: permanently UNSAT

	assign []int8    // 1 true, -1 false, 0 unassigned
	level  []int32   // decision level of each assigned variable
	reason []*clause // implying clause of each propagated variable
	trail  []Lit
	lim    []int // trail length at each decision-level start
	head   int   // propagation queue head

	// Preferred decision polarity per variable (true-first finds larger
	// Eq-sets quickly, which suits the maximality iteration). The
	// canonical phase always decides this polarity; the probe phase
	// uses it until phase saving overrides it.
	phase      []bool
	savedPhase []int8 // probe-phase polarity memory: 0 unset, else ±1

	// EVSIDS branching state: a max-activity binary heap with
	// lower-variable-index tie-breaks.
	activity []float64
	varInc   float64
	heap     []int
	heapPos  []int

	claInc      float64
	clauseID    uint64
	learntCap   int
	restartBase int
	stallCap    int64

	// Conflict-analysis scratch.
	seen    []bool
	lbdMark []int32
	lbdGen  int32

	// Hot-loop counters. These stay plain fields — the inner loops must
	// not pay an interface call per propagation — and their deltas are
	// flushed to rec at the end of every Solve.
	decisions    int64
	propagations int64
	conflicts    int64
	learned      int64
	restarts     int64
	lbdSum       int64
	lbdCnt       int64
	rec          obs.Recorder

	budget *limits.Budget // nil = unlimited
}

// NewSolver returns a solver over nvars variables.
func NewSolver(nvars int) *Solver {
	s := &Solver{
		nvars:       nvars,
		watches:     make([][]*clause, 2*nvars),
		assign:      make([]int8, nvars),
		level:       make([]int32, nvars),
		reason:      make([]*clause, nvars),
		phase:       make([]bool, nvars),
		savedPhase:  make([]int8, nvars),
		activity:    make([]float64, nvars),
		heapPos:     make([]int, nvars),
		seen:        make([]bool, nvars),
		varInc:      1,
		claInc:      1,
		restartBase: defaultRestartBase,
		stallCap:    defaultStallCap,
		rec:         obs.Nop{},
	}
	for v := 0; v < nvars; v++ {
		s.phase[v] = true
		s.heapPos[v] = -1
	}
	for v := 0; v < nvars; v++ {
		s.heapInsert(v)
	}
	return s
}

// SetRecorder directs the solver's counters (asp.sat.decisions,
// asp.sat.propagations, asp.sat.conflicts, asp.sat.learned,
// asp.sat.restarts) and per-solve shape histograms to rec; nil
// restores the no-op recorder. Deltas are flushed after every Solve.
func (s *Solver) SetRecorder(rec obs.Recorder) { s.rec = obs.OrNop(rec) }

// SetBudget attaches a resource budget: AddClause charges its clause
// count (problem clauses only — learned clauses are bounded by the
// deletion policy instead), Solve charges a decision per decision
// point and polls the budget on every conflict, stopping with a typed
// error matching limits.ErrBudget or limits.ErrCanceled. A nil budget
// (the default) is unlimited.
func (s *Solver) SetBudget(b *limits.Budget) { s.budget = b }

// Decisions returns the number of decision points taken so far.
//
// Deprecated: Decisions was an exported field; it is now an accessor
// over the obs-backed counter. Attach an obs.Recorder via SetRecorder
// and read the asp.sat.decisions counter instead.
func (s *Solver) Decisions() int64 { return s.decisions }

// Propagations returns the number of unit propagations so far.
//
// Deprecated: Propagations was an exported field; it is now an accessor
// over the obs-backed counter. Attach an obs.Recorder via SetRecorder
// and read the asp.sat.propagations counter instead.
func (s *Solver) Propagations() int64 { return s.propagations }

// Conflicts returns the number of conflicts hit so far.
func (s *Solver) Conflicts() int64 { return s.conflicts }

// Learned returns the number of clauses learned by conflict analysis
// so far (deleted ones included; entailed units included).
func (s *Solver) Learned() int64 { return s.learned }

// Restarts returns the number of probe-phase restarts so far.
func (s *Solver) Restarts() int64 { return s.restarts }

// NumClauses returns the number of problem clauses added (tautologies
// excluded; learned clauses are not counted).
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearnts returns the number of learned clauses currently retained
// (entailed units excluded).
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// NumVars returns the variable count.
func (s *Solver) NumVars() int { return s.nvars }

// NewVar adds a fresh variable and returns its index. Used for
// activation literals in retractable constraints.
func (s *Solver) NewVar() int {
	v := s.nvars
	s.nvars++
	s.watches = append(s.watches, nil, nil)
	s.assign = append(s.assign, 0)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.phase = append(s.phase, true)
	s.savedPhase = append(s.savedPhase, 0)
	s.activity = append(s.activity, 0)
	s.heapPos = append(s.heapPos, -1)
	s.seen = append(s.seen, false)
	s.heapInsert(v)
	return v
}

// SetPhase sets the preferred decision polarity of variable v — the
// polarity the canonical phase always decides, which makes it part of
// the enumeration-order contract.
func (s *Solver) SetPhase(v int, positive bool) { s.phase[v] = positive }

// AddClause adds a clause. Duplicate literals are tolerated;
// tautological clauses (l and ¬l) are dropped. Adding the empty clause
// makes the solver permanently unsatisfiable. Must not be called while
// a Solve is in progress. When a budget is attached, each stored clause
// is charged against MaxClauses; an exhausted budget latches and the
// error surfaces from the next Solve (AddClause itself stays
// void so incremental loops need no per-call error plumbing).
func (s *Solver) AddClause(lits ...Lit) {
	seen := make(map[Lit]bool, len(lits))
	var c []Lit
	for _, l := range lits {
		if seen[l.Neg()] {
			return // tautology
		}
		if !seen[l] {
			seen[l] = true
			c = append(c, l)
		}
	}
	if len(c) == 0 {
		s.empty = true
		return
	}
	cl := &clause{lits: c, id: s.clauseID}
	s.clauseID++
	s.clauses = append(s.clauses, cl)
	if len(c) == 1 {
		s.units = append(s.units, c[0])
	} else {
		s.attach(cl)
	}
	_ = s.budget.AddClauses(1) // latches; surfaces at the next Solve
}

func (s *Solver) attach(c *clause) {
	s.watches[widx(c.lits[0])] = append(s.watches[widx(c.lits[0])], c)
	s.watches[widx(c.lits[1])] = append(s.watches[widx(c.lits[1])], c)
}

// detach removes c from its two watch lists, preserving list order so
// propagation visit order (and with it the learned-clause stream)
// stays deterministic.
func (s *Solver) detach(c *clause) {
	for _, l := range c.lits[:2] {
		ws := s.watches[widx(l)]
		for i, w := range ws {
			if w == c {
				s.watches[widx(l)] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
	}
}

func (s *Solver) value(l Lit) int8 {
	v := s.assign[l.Var()]
	if l < 0 {
		return -v
	}
	return v
}

// enqueue assigns l true with the given reason; returns false if l is
// already false.
func (s *Solver) enqueue(l Lit, from *clause) bool {
	switch s.value(l) {
	case 1:
		return true
	case -1:
		return false
	}
	v := l.Var()
	if l > 0 {
		s.assign[v] = 1
	} else {
		s.assign[v] = -1
	}
	s.level[v] = int32(len(s.lim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation over the two-watched-literal
// scheme, returning the conflicting clause or nil.
func (s *Solver) propagate() *clause {
	for s.head < len(s.trail) {
		p := s.trail[s.head]
		s.head++
		s.propagations++
		falsified := p.Neg()
		wi := widx(falsified)
		ws := s.watches[wi]
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			lits := c.lits
			// Ensure the falsified literal is at position 1.
			if lits[0] == falsified {
				lits[0], lits[1] = lits[1], lits[0]
			}
			if s.value(lits[0]) == 1 {
				kept = append(kept, c) // clause satisfied
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != -1 {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[widx(lits[1])] = append(s.watches[widx(lits[1])], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflict on lits[0].
			kept = append(kept, c)
			if !s.enqueue(lits[0], c) {
				// Conflict: keep remaining watches intact.
				kept = append(kept, ws[i+1:]...)
				s.watches[wi] = kept
				return c
			}
		}
		s.watches[wi] = kept
	}
	return nil
}

// cancelUntil unassigns every literal above decision level `level`,
// saving probe-phase polarities and restoring heap membership.
func (s *Solver) cancelUntil(level int) {
	for len(s.lim) > level {
		mark := s.lim[len(s.lim)-1]
		s.lim = s.lim[:len(s.lim)-1]
		s.popTrailTo(mark)
	}
	if s.head > len(s.trail) {
		s.head = len(s.trail)
	}
}

func (s *Solver) popTrailTo(mark int) {
	for len(s.trail) > mark {
		l := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		v := l.Var()
		if s.assign[v] > 0 {
			s.savedPhase[v] = 1
		} else {
			s.savedPhase[v] = -1
		}
		s.assign[v] = 0
		s.reason[v] = nil
		s.heapInsert(v)
	}
}

// resetTrail undoes every assignment, root level included — the
// between-solves resting state (Solve's contract is that the partial
// assignment is fully undone on every exit path).
func (s *Solver) resetTrail() {
	s.cancelUntil(0)
	s.popTrailTo(0)
	s.head = 0
}

// analyze performs first-UIP conflict analysis from the conflicting
// clause. It returns the learned clause (asserting literal first, a
// highest-level-remaining literal second for watching), the backjump
// level, and the clause's literal block distance. Must be called with
// at least one decision level active.
func (s *Solver) analyze(confl *clause) ([]Lit, int, int) {
	learnt := make([]Lit, 1, 8)
	curLevel := int32(len(s.lim))
	counter := 0
	var p Lit
	idx := len(s.trail) - 1
	for {
		if confl.learned {
			s.bumpClause(confl)
		}
		for _, q := range confl.lits {
			if q == p {
				continue // the literal being resolved on
			}
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.bumpVar(v)
				if s.level[v] >= curLevel {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Resolve on the most recent trail literal still marked.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[v] // non-nil: only the UIP can be a decision
	}
	learnt[0] = p.Neg()

	backLevel := 0
	if len(learnt) > 1 {
		maxi := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxi].Var()] {
				maxi = i
			}
		}
		learnt[1], learnt[maxi] = learnt[maxi], learnt[1]
		backLevel = int(s.level[learnt[1].Var()])
	}

	// Literal block distance: distinct decision levels in the clause.
	s.lbdGen++
	lbd := 0
	for _, q := range learnt {
		lv := s.level[q.Var()]
		if s.lbdMark[lv] != s.lbdGen {
			s.lbdMark[lv] = s.lbdGen
			lbd++
		}
	}
	for _, q := range learnt[1:] {
		s.seen[q.Var()] = false
	}
	return learnt, backLevel, lbd
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > varActRescale {
		for i := range s.activity {
			s.activity[i] *= 1 / varActRescale
		}
		s.varInc *= 1 / varActRescale
	}
	if s.heapPos[v] >= 0 {
		s.heapUp(s.heapPos[v])
	}
}

func (s *Solver) bumpClause(c *clause) {
	c.act += s.claInc
	if c.act > claActRescale {
		for _, lc := range s.learnts {
			lc.act *= 1 / claActRescale
		}
		s.claInc *= 1 / claActRescale
	}
}

// reduceDB deletes roughly half of the deletable learned clauses:
// glue clauses (LBD ≤ 2), binary clauses and clauses currently acting
// as a propagation reason are kept; the rest are ranked worst-first by
// (higher LBD, lower activity, lower id) and the worst half detached.
func (s *Solver) reduceDB() {
	locked := func(c *clause) bool {
		v := c.lits[0].Var()
		return s.assign[v] != 0 && s.reason[v] == c
	}
	var cand []*clause
	for _, c := range s.learnts {
		if c.lbd > 2 && len(c.lits) > 2 && !locked(c) {
			cand = append(cand, c)
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		a, b := cand[i], cand[j]
		if a.lbd != b.lbd {
			return a.lbd > b.lbd
		}
		if a.act != b.act {
			return a.act < b.act
		}
		return a.id < b.id
	})
	drop := make(map[*clause]bool, len(cand)/2)
	for _, c := range cand[:len(cand)/2] {
		drop[c] = true
		s.detach(c)
	}
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if !drop[c] {
			kept = append(kept, c)
		}
	}
	s.learnts = kept
	s.learntCap += s.learntCap/10 + 16
}

// luby returns the i-th element (0-based) of the Luby restart
// sequence 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(i int) int64 {
	size, seq := 1, 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		seq--
		i %= size
	}
	return int64(1) << seq
}

// runFrom rebuilds the root level (entailed units plus their closure)
// and runs one search pass from scratch; learned clauses persist.
// maxConflicts < 0 means uncapped.
func (s *Solver) runFrom(assumps []Lit, canonical bool, maxConflicts int64) (int8, error) {
	s.resetTrail()
	for _, u := range s.units {
		if !s.enqueue(u, nil) {
			s.conflicts++
			s.unsat = true
			return stUNSAT, nil
		}
	}
	return s.search(assumps, canonical, maxConflicts)
}

// search is the CDCL main loop. Assumptions occupy the first
// len(assumps) decision levels (re-asserted after every backjump or
// restart below them); an assumption found false under the implied
// trail makes the call UNSAT without latching the solver. In canonical
// mode decisions follow the DPLL order — lowest unassigned variable at
// its preferred phase — and restarts are disabled; in probe mode
// decisions follow EVSIDS activity with saved phases under Luby
// restarts. A non-negative maxConflicts makes the pass give up with
// stStall after that many conflicts (the clauses learned so far are
// kept — they are entailed regardless).
func (s *Solver) search(assumps []Lit, canonical bool, maxConflicts int64) (int8, error) {
	restartNum := 0
	passConflicts := int64(0)
	conflictsLeft := int64(-1)
	if !canonical {
		conflictsLeft = int64(s.restartBase) * luby(0)
	}
	canonCursor := 0
	for {
		if confl := s.propagate(); confl != nil {
			s.conflicts++
			if err := s.budget.AddConflict(); err != nil {
				return 0, err
			}
			if len(s.lim) == 0 {
				// Root-level conflict: the clause set itself is
				// unsatisfiable, independent of assumptions.
				s.unsat = true
				return stUNSAT, nil
			}
			learnt, backLevel, lbd := s.analyze(confl)
			s.cancelUntil(backLevel)
			canonCursor = 0
			if len(learnt) == 1 {
				// An entailed unit: remember it so it survives the
				// per-solve trail rebuild.
				s.units = append(s.units, learnt[0])
				if !s.enqueue(learnt[0], nil) {
					s.unsat = true
					return stUNSAT, nil
				}
			} else {
				c := &clause{lits: learnt, learned: true, lbd: int32(lbd), id: s.clauseID}
				s.clauseID++
				s.attach(c)
				s.learnts = append(s.learnts, c)
				s.bumpClause(c)
				s.enqueue(learnt[0], c)
			}
			s.learned++
			s.lbdSum += int64(lbd)
			s.lbdCnt++
			s.varInc *= varIncGrowth
			s.claInc *= claIncGrowth
			if conflictsLeft > 0 {
				conflictsLeft--
			}
			if len(s.learnts) >= s.learntCap {
				s.reduceDB()
			}
			passConflicts++
			if maxConflicts >= 0 && passConflicts >= maxConflicts {
				return stStall, nil
			}
			continue
		}
		if !canonical && conflictsLeft == 0 && restartNum < maxRestarts {
			restartNum++
			s.restarts++
			conflictsLeft = int64(s.restartBase) * luby(restartNum)
			s.cancelUntil(0)
			canonCursor = 0
			continue
		}
		if dl := len(s.lim); dl < len(assumps) {
			a := assumps[dl]
			switch s.value(a) {
			case -1:
				return stUNSAT, nil // refuted under the implied trail
			case 1:
				s.lim = append(s.lim, len(s.trail)) // dummy level
			default:
				s.lim = append(s.lim, len(s.trail))
				s.enqueue(a, nil)
			}
			continue
		}
		var next Lit
		if canonical {
			for v := canonCursor; v < s.nvars; v++ {
				if s.assign[v] == 0 {
					next = MkLit(v, s.phase[v])
					canonCursor = v + 1
					break
				}
			}
		} else {
			for len(s.heap) > 0 {
				v := s.heapPop()
				if s.assign[v] != 0 {
					continue
				}
				pol := s.phase[v]
				if s.savedPhase[v] != 0 {
					pol = s.savedPhase[v] > 0
				}
				next = MkLit(v, pol)
				break
			}
		}
		if next == 0 {
			return stSAT, nil
		}
		if err := s.budget.AddDecision(); err != nil {
			return 0, err
		}
		s.decisions++
		s.lim = append(s.lim, len(s.trail))
		s.enqueue(next, nil)
	}
}

// Solve searches for a model extending the assumptions. It returns
// (model, true) on success — model[v] is the truth value of variable v —
// and (nil, false) on unsatisfiability (under the assumptions). The
// solver is reusable: clauses (learned ones included) persist across
// calls.
//
// The search is deterministic and the returned model canonical: it is
// the lexicographically optimal model of the current clauses under the
// assumptions — the model the pre-CDCL DPLL engine returned (see the
// package comment) — so enumeration driven by blocking clauses visits
// models in the same order on every run, on every solver holding the
// same clauses in the same insertion order.
//
// Under an attached budget (SetBudget) Solve charges one decision per
// decision point, polls the budget on every conflict, and stops early
// with a typed error matching limits.ErrBudget when MaxDecisions or
// MaxClauses is exhausted, or limits.ErrCanceled when the budget's
// context is done. On error the model is nil and ok is false, and the
// partial assignment is fully undone, leaving the solver reusable under
// a fresh budget (clauses learned before the cut are entailed and are
// kept). Without a budget the error is always nil.
func (s *Solver) Solve(assumptions ...Lit) ([]bool, bool, error) {
	if err := s.budget.Err(); err != nil {
		return nil, false, err
	}
	if s.empty || s.unsat {
		return nil, false, nil
	}
	d0, p0, c0 := s.decisions, s.propagations, s.conflicts
	l0, r0, ls0, lc0 := s.learned, s.restarts, s.lbdSum, s.lbdCnt
	defer func() {
		s.rec.Inc(obs.ASPDecisions, s.decisions-d0)
		s.rec.Inc(obs.ASPPropagations, s.propagations-p0)
		s.rec.Inc(obs.ASPConflicts, s.conflicts-c0)
		s.rec.Inc(obs.ASPSATLearned, s.learned-l0)
		s.rec.Inc(obs.ASPSATRestarts, s.restarts-r0)
		// Per-solve effort distributions: a flat counter hides whether
		// 1k decisions were one hard solve or a thousand trivial ones.
		s.rec.Observe(obs.HistASPDecisionsPerSolve, time.Duration(s.decisions-d0))
		s.rec.Observe(obs.HistASPPropagationsPerSolve, time.Duration(s.propagations-p0))
		s.rec.Observe(obs.HistASPConflictsPerSolve, time.Duration(s.conflicts-c0))
		s.rec.Observe(obs.HistASPSATLearnedPerSolve, time.Duration(s.learned-l0))
		s.rec.Observe(obs.HistASPSATRestartsPerSolve, time.Duration(s.restarts-r0))
		avgLBD := int64(0)
		if n := s.lbdCnt - lc0; n > 0 {
			avgLBD = (s.lbdSum - ls0 + n/2) / n
		}
		s.rec.Observe(obs.HistASPSATLBDPerSolve, time.Duration(avgLBD))
	}()
	// Size per-solve scratch: decision levels are bounded by assigned
	// variables plus one dummy level per assumption, plus the root.
	if need := s.nvars + len(assumptions) + 1; len(s.lbdMark) < need {
		s.lbdMark = append(s.lbdMark, make([]int32, need-len(s.lbdMark))...)
	}
	if base := 256 + len(s.clauses)/3; s.learntCap < base {
		s.learntCap = base
	}
	defer s.resetTrail()

	// Canonical pass first: most pipeline solves finish within the
	// stall cap and pay for no second search.
	st, err := s.runFrom(assumptions, true, s.stallCap)
	if err != nil {
		return nil, false, err
	}
	if st == stStall {
		// Hard instance: probe with activity-directed search and Luby
		// restarts for the verdict.
		st, err = s.runFrom(assumptions, false, -1)
		if err != nil || st == stUNSAT {
			return nil, false, err
		}
		// Satisfiable: re-run the canonical pass uncapped for the
		// lexicographically optimal model, steered by everything the
		// probe learned.
		st, err = s.runFrom(assumptions, true, -1)
		if err != nil {
			return nil, false, err
		}
	}
	if st == stUNSAT {
		return nil, false, nil
	}
	model := make([]bool, s.nvars)
	for v := 0; v < s.nvars; v++ {
		model[v] = s.assign[v] == 1
	}
	return model, true, nil
}

// Binary-heap plumbing for the EVSIDS order: a max-heap on activity
// with ties broken toward the lower variable index, so the probe
// phase is exactly as deterministic as the canonical one.

func (s *Solver) heapLess(a, b int) bool {
	if s.activity[a] != s.activity[b] {
		return s.activity[a] > s.activity[b]
	}
	return a < b
}

func (s *Solver) heapInsert(v int) {
	if s.heapPos[v] >= 0 {
		return
	}
	s.heap = append(s.heap, v)
	s.heapPos[v] = len(s.heap) - 1
	s.heapUp(len(s.heap) - 1)
}

func (s *Solver) heapPop() int {
	v := s.heap[0]
	s.heapPos[v] = -1
	last := s.heap[len(s.heap)-1]
	s.heap = s.heap[:len(s.heap)-1]
	if len(s.heap) > 0 && last != v {
		s.heap[0] = last
		s.heapPos[last] = 0
		s.heapDown(0)
	}
	return v
}

func (s *Solver) heapUp(i int) {
	v := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(v, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.heapPos[s.heap[i]] = i
		i = p
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

func (s *Solver) heapDown(i int) {
	v := s.heap[i]
	n := len(s.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.heapLess(s.heap[c+1], s.heap[c]) {
			c++
		}
		if !s.heapLess(s.heap[c], v) {
			break
		}
		s.heap[i] = s.heap[c]
		s.heapPos[s.heap[i]] = i
		i = c
	}
	s.heap[i] = v
	s.heapPos[v] = i
}
