package asp

import (
	"sort"
	"time"

	"repro/internal/limits"
	"repro/internal/obs"
)

// StableSolver finds the stable models of a ground program via the
// assat pipeline: Clark completion into CNF, CDCL search, and loop
// formulas added whenever a completion model fails the reduct
// least-model stability test.
type StableSolver struct {
	gp  *GroundProgram
	sat *Solver
	// bodyVar[i] is the CNF variable of rule i's body conjunction, or
	// -1 for constraints.
	bodyVar []int
	natoms  int
	// byPos[a] lists rules with a in their positive body (for the
	// reduct least-model fixpoint).
	byPos [][]int
	// defRules lists the indices of rules with heads.
	defRules []int

	rec obs.Recorder

	budgetCounted bool // asp.budget.* counter already bumped
}

// NewStableSolver builds the completion of gp under a resource budget.
// The budget is attached before the completion is added, so every CNF
// clause — completion, loop formulas and blocking clauses — is charged
// against its MaxClauses; an exhausted budget latches and surfaces as a
// typed error matching limits.ErrBudget or limits.ErrCanceled from the
// first solving method. The recorder receives the completion size
// gauges (asp.completion.clauses, asp.completion.vars), the
// stability-loop counters (asp.stable.*), and the underlying CDCL
// solver's counters (asp.sat.*). A nil budget is unlimited and a nil
// recorder is a no-op.
func NewStableSolver(gp *GroundProgram, b *limits.Budget, rec obs.Recorder) *StableSolver {
	n := gp.NumAtoms()
	ss := &StableSolver{
		gp:      gp,
		natoms:  n,
		bodyVar: make([]int, len(gp.Rules)),
		byPos:   make([][]int, n),
		rec:     obs.OrNop(rec),
	}
	// Variables: atoms first, then one body variable per defining rule.
	nvars := n
	byHead := make([][]int, n)
	for i, r := range gp.Rules {
		if r.Head >= 0 {
			ss.bodyVar[i] = nvars
			nvars++
			byHead[r.Head] = append(byHead[r.Head], i)
			ss.defRules = append(ss.defRules, i)
			seen := make(map[int]bool, len(r.Pos))
			for _, p := range r.Pos {
				// One byPos entry per distinct atom: the least-model
				// fixpoint decrements once per occurrence itself.
				if !seen[p] {
					seen[p] = true
					ss.byPos[p] = append(ss.byPos[p], i)
				}
			}
		} else {
			ss.bodyVar[i] = -1
		}
	}
	ss.sat = NewSolver(nvars)
	// Attach before the completion so its clauses are charged too.
	ss.sat.SetBudget(b)
	// Prefer false for body variables (smaller search noise).
	for v := n; v < nvars; v++ {
		ss.sat.SetPhase(v, false)
	}

	for i, r := range gp.Rules {
		if r.Head < 0 {
			// Constraint: ¬(pos ∧ ¬neg) = ⋁¬pos ∨ ⋁neg.
			lits := make([]Lit, 0, len(r.Pos)+len(r.Neg))
			for _, p := range r.Pos {
				lits = append(lits, MkLit(p, false))
			}
			for _, ng := range r.Neg {
				lits = append(lits, MkLit(ng, true))
			}
			ss.sat.AddClause(lits...)
			continue
		}
		b := ss.bodyVar[i]
		// b ↔ ⋀pos ∧ ⋀¬neg.
		long := make([]Lit, 0, len(r.Pos)+len(r.Neg)+1)
		long = append(long, MkLit(b, true))
		for _, p := range r.Pos {
			ss.sat.AddClause(MkLit(b, false), MkLit(p, true))
			long = append(long, MkLit(p, false))
		}
		for _, ng := range r.Neg {
			ss.sat.AddClause(MkLit(b, false), MkLit(ng, false))
			long = append(long, MkLit(ng, true))
		}
		ss.sat.AddClause(long...)
	}
	// Atom support: a ↔ ⋁ bodies.
	for a := 0; a < n; a++ {
		rs := byHead[a]
		if len(rs) == 0 {
			ss.sat.AddClause(MkLit(a, false))
			continue
		}
		sup := make([]Lit, 0, len(rs)+1)
		sup = append(sup, MkLit(a, false))
		for _, ri := range rs {
			b := ss.bodyVar[ri]
			ss.sat.AddClause(MkLit(b, false), MkLit(a, true))
			sup = append(sup, MkLit(b, true))
		}
		ss.sat.AddClause(sup...)
	}
	ss.sat.SetRecorder(ss.rec)
	ss.rec.Gauge(obs.ASPCompletionClauses, int64(ss.sat.NumClauses()))
	ss.rec.Gauge(obs.ASPCompletionVars, int64(ss.sat.NumVars()))
	return ss
}

// SAT exposes the underlying SAT solver (for adding domain-specific
// constraints such as blocking clauses over atom variables).
func (ss *StableSolver) SAT() *Solver { return ss.sat }

// noteErr counts the first budget/cancel abort on the asp.budget.*
// counters. The budget latches, so later calls resurface the same
// error; counting once keeps the counters meaning "aborted phases".
func (ss *StableSolver) noteErr(err error) error {
	if err != nil && !ss.budgetCounted {
		ss.budgetCounted = true
		countBudgetStop(ss.rec, err)
	}
	return err
}

// reductLM computes the least model of the reduct of the program w.r.t.
// the atom assignment model, as a set of atoms.
func (ss *StableSolver) reductLM(model []bool) []bool {
	lm := make([]bool, ss.natoms)
	pending := make([]int, len(ss.gp.Rules))
	var queue []int
	deleted := make([]bool, len(ss.gp.Rules))
	for _, ri := range ss.defRules {
		r := ss.gp.Rules[ri]
		for _, ng := range r.Neg {
			if model[ng] {
				deleted[ri] = true
				break
			}
		}
		if deleted[ri] {
			continue
		}
		pending[ri] = len(r.Pos)
		if pending[ri] == 0 && !lm[r.Head] {
			lm[r.Head] = true
			queue = append(queue, r.Head)
		}
	}
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		for _, ri := range ss.byPos[a] {
			if deleted[ri] {
				continue
			}
			// Count each occurrence of a in the positive body.
			r := ss.gp.Rules[ri]
			for _, p := range r.Pos {
				if p == a {
					pending[ri]--
				}
			}
			if pending[ri] <= 0 && !lm[r.Head] {
				lm[r.Head] = true
				queue = append(queue, r.Head)
			}
		}
	}
	return lm
}

// Next returns the atom assignment of a stable model consistent with
// the assumptions, or ok=false if none exists. Loop formulas discovered
// along the way are retained (they are consequences of the program).
// Under the solver's budget the search stops early with a typed error
// matching limits.ErrBudget or limits.ErrCanceled, in which case the
// model is nil and ok is false.
func (ss *StableSolver) Next(assumptions ...Lit) ([]bool, bool, error) {
	learned, restarts := 0, 0
	defer func() {
		// Stability-effort distributions for this model search: how
		// many completion models assat rejected and how many loop
		// formulas it had to learn.
		ss.rec.Observe(obs.HistASPRestartsPerSolve, time.Duration(int64(restarts)))
		ss.rec.Observe(obs.HistASPLearnedPerSolve, time.Duration(int64(learned)))
	}()
	for restart := 0; ; restart++ {
		if restart > 0 {
			restarts++
			ss.rec.Inc(obs.ASPRestarts, 1)
		}
		full, ok, err := ss.sat.Solve(assumptions...)
		if err != nil {
			return nil, false, ss.noteErr(err)
		}
		if !ok {
			return nil, false, nil
		}
		model := full[:ss.natoms]
		lm := ss.reductLM(model)
		stable := true
		for a := 0; a < ss.natoms; a++ {
			if model[a] != lm[a] {
				stable = false
				break
			}
		}
		if stable {
			ss.rec.Inc(obs.ASPModels, 1)
			return model, true, nil
		}
		// Unfounded set U = true atoms not in the least model. Add the
		// loop formula: some atom of U false, or some external support
		// body (head in U, positive body disjoint from U) true.
		inU := make([]bool, ss.natoms)
		var clause []Lit
		for a := 0; a < ss.natoms; a++ {
			if model[a] && !lm[a] {
				inU[a] = true
				clause = append(clause, MkLit(a, false))
			}
		}
		for _, ri := range ss.defRules {
			r := ss.gp.Rules[ri]
			if !inU[r.Head] {
				continue
			}
			external := true
			for _, p := range r.Pos {
				if inU[p] {
					external = false
					break
				}
			}
			if external {
				clause = append(clause, MkLit(ss.bodyVar[ri], true))
			}
		}
		ss.sat.AddClause(clause...)
		learned++
		ss.rec.Inc(obs.ASPLoopFormulas, 1)
	}
}

// TrueAtoms converts an atom assignment to a sorted id list.
func TrueAtoms(model []bool) []int {
	var out []int
	for a, v := range model {
		if v {
			out = append(out, a)
		}
	}
	return out
}

// Enumerate visits the stable models (atom assignments) one by one,
// blocking each on the atom variables; visit returning false stops the
// enumeration. The solver is exhausted afterwards.
//
// The visiting order is deterministic: the CDCL solver's canonical
// pass returns the lexicographically least model under the preferred
// phases (lowest-numbered variable first — see the package comment in
// sat.go), each excluded by a blocking clause before the next search,
// so the same program yields the same model sequence on every run,
// independent of clause learning, restarts and deletion.
//
// Under the solver's budget Enumerate returns a typed error matching
// limits.ErrBudget or limits.ErrCanceled when the search is cut short.
// Models already visited are unaffected — callers keep the partial
// enumeration.
func (ss *StableSolver) Enumerate(visit func(model []bool) bool) error {
	for {
		m, ok, err := ss.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		cont := visit(m)
		// Block this exact atom assignment.
		clause := make([]Lit, ss.natoms)
		for a := 0; a < ss.natoms; a++ {
			clause[a] = MkLit(a, !m[a])
		}
		ss.sat.AddClause(clause...)
		if !cont {
			return nil
		}
	}
}

// BraveCautious enumerates all stable models and returns the union and
// intersection of their atom sets; found is false when the program is
// incoherent (no stable model). On a budget or cancellation error the
// returned sets cover only the models enumerated before the cut — the
// brave set is an under-approximation and the cautious set an
// over-approximation.
func (ss *StableSolver) BraveCautious() (brave, cautious []bool, found bool, err error) {
	err = ss.Enumerate(func(m []bool) bool {
		if !found {
			found = true
			brave = append([]bool(nil), m...)
			cautious = append([]bool(nil), m...)
			return true
		}
		for a := range m {
			if m[a] {
				brave[a] = true
			} else {
				cautious[a] = false
			}
		}
		return true
	})
	return brave, cautious, found, err
}

// MaximalProjections enumerates the stable models whose projection onto
// the given atom ids is ⊆-maximal among all stable models — the
// preference of Section 5.3 (metasp / asprin). Exactly one model per
// maximal projection is visited. visit returning false stops early.
// The visiting order is deterministic for the same reason as
// Enumerate's.
//
// Under the solver's budget MaximalProjections returns a typed error
// matching limits.ErrBudget or limits.ErrCanceled when the search is
// cut short. Projections already visited were fully improved
// and remain maximal; a cut mid-improvement discards the candidate
// rather than visiting a non-maximal one.
func (ss *StableSolver) MaximalProjections(proj []int, visit func(model []bool) bool) error {
	proj = append([]int(nil), proj...)
	sort.Ints(proj)
	for {
		m, ok, err := ss.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		// Improve m until no stable model has a strictly larger
		// projection (asprin-style iterative improvement).
		for {
			var assume []Lit
			var missing []Lit
			for _, a := range proj {
				if m[a] {
					assume = append(assume, MkLit(a, true))
				} else {
					missing = append(missing, MkLit(a, true))
				}
			}
			if len(missing) == 0 {
				break
			}
			// Activation literal so the "some missing atom true"
			// requirement can be retracted after this round.
			act := ss.sat.NewVar()
			ss.sat.AddClause(append([]Lit{MkLit(act, false)}, missing...)...)
			m2, ok, err := ss.Next(append(assume, MkLit(act, true))...)
			ss.sat.AddClause(MkLit(act, false)) // retire the activation
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			m = m2
		}
		if !visit(m) {
			return nil
		}
		// Block every projection ⊆ this one: require some projected
		// atom outside it. When the projection is already full, this
		// adds the empty clause and ends the enumeration.
		var clause []Lit
		for _, a := range proj {
			if !m[a] {
				clause = append(clause, MkLit(a, true))
			}
		}
		ss.sat.AddClause(clause...)
	}
}
