// Package encode implements the answer set programming encoding of LACE
// specifications from Section 5.2 of the paper: the normal logic program
// Π_Sol whose stable models, projected onto the eq/2 predicate, are
// exactly the solutions of (D, Σ) (Theorem 10). Maximal solutions are
// obtained through the asp package's ⊆-maximal projection enumeration
// (Section 5.3), standing in for metasp/asprin over clingo.
//
// Predicate naming: database relations R become r_R, similarity
// predicates p become s_p, and the reserved predicates eq, neq, active
// and adom implement merges, rejected merges, soft-rule applicability
// and the active domain.
package encode

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/asp"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/limits"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/sim"
)

// Reserved predicate names of the encoding.
const (
	PredEq     = "eq"
	PredNeq    = "neq"
	PredActive = "active"
	PredAdom   = "adom"
)

// relPred returns the ASP predicate for a database relation.
func relPred(name string) string { return "r_" + sanitize(name) }

// simPred returns the ASP predicate for a similarity predicate.
func simPred(name string) string { return "s_" + sanitize(name) }

// sanitize lowercases the first rune and maps non-identifier bytes to
// '_' so predicate names are clingo-compatible.
func sanitize(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'A' && c <= 'Z':
			if i == 0 {
				c += 'a' - 'A'
			}
			b.WriteByte(c)
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Encoder builds Π_Sol for a database and specification.
type Encoder struct {
	d    *db.Database
	spec *rules.Spec
	sims *sim.Registry
}

// New returns an encoder. The specification must already be valid for
// the database schema.
func New(d *db.Database, spec *rules.Spec, sims *sim.Registry) *Encoder {
	return &Encoder{d: d, spec: spec, sims: sims}
}

// Program returns Π_Sol together with the database and similarity facts.
func (en *Encoder) Program() (*asp.Program, error) {
	p := &asp.Program{}
	en.addFacts(p)
	if err := en.addSimFacts(p); err != nil {
		return nil, err
	}
	en.addAdomRules(p)
	en.addEquivalenceRules(p)
	en.addChoiceRules(p)
	for _, r := range en.spec.Rules {
		// NegSoft rules are scoring-only (Section 7 extension) and do
		// not affect the solution space, so Π_Sol omits them.
		if r.Kind == rules.NegSoft {
			continue
		}
		if err := en.addRule(p, r); err != nil {
			return nil, err
		}
	}
	for _, dn := range en.spec.Denials {
		if err := en.addDenial(p, dn); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// addFacts emits r_R(c1,...,ck) for every database fact.
func (en *Encoder) addFacts(p *asp.Program) {
	in := en.d.Interner()
	for _, f := range en.d.Facts() {
		args := make([]asp.Term, len(f.Args))
		for i, c := range f.Args {
			args[i] = asp.K(in.Name(c))
		}
		p.AddFact(asp.A(relPred(f.Rel), args...))
	}
}

// simValueSets collects, per similarity predicate used in the
// specification, the set of constants that can reach its arguments:
// the contents of every relational column on which a variable of one of
// its atoms occurs, plus constant arguments.
func (en *Encoder) simValueSets() map[string]map[db.Const]bool {
	sets := make(map[string]map[db.Const]bool)
	note := func(pred string, c db.Const) {
		if sets[pred] == nil {
			sets[pred] = make(map[db.Const]bool)
		}
		sets[pred][c] = true
	}
	noteColumn := func(pred, rel string, pos int) {
		for _, tup := range en.d.Tuples(rel) {
			note(pred, tup[pos])
		}
	}
	bodies := make([][]cq.Atom, 0, len(en.spec.Rules)+len(en.spec.Denials))
	for _, r := range en.spec.Rules {
		bodies = append(bodies, r.Body.Atoms)
	}
	for _, dn := range en.spec.Denials {
		bodies = append(bodies, dn.Atoms)
	}
	for _, atoms := range bodies {
		for _, a := range atoms {
			if a.Kind != cq.KindSim {
				continue
			}
			for _, t := range a.Args {
				if !t.IsVar {
					note(a.Pred, t.Const)
					continue
				}
				// Find the relational columns where this variable occurs.
				for _, b := range atoms {
					if b.Kind != cq.KindRel {
						continue
					}
					for pos, bt := range b.Args {
						if bt.IsVar && bt.Name == t.Name {
							noteColumn(a.Pred, b.Pred, pos)
						}
					}
				}
			}
		}
	}
	return sets
}

// addSimFacts materialises the extension of each similarity predicate
// restricted to the values reachable by the rules. Predicates are
// visited in sorted order: iterating the value-set map directly made
// the fact order — and hence ground atom numbering and model
// enumeration order — vary run to run, which the Theorem-10
// determinism test caught.
func (en *Encoder) addSimFacts(p *asp.Program) error {
	in := en.d.Interner()
	sets := en.simValueSets()
	predNames := make([]string, 0, len(sets))
	for name := range sets {
		predNames = append(predNames, name)
	}
	sort.Strings(predNames)
	for _, predName := range predNames {
		set := sets[predName]
		pred, err := en.sims.MustLookup(predName)
		if err != nil {
			return err
		}
		vals := make([]db.Const, 0, len(set))
		for c := range set {
			vals = append(vals, c)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, a := range vals {
			for _, b := range vals {
				if pred.Holds(in.Name(a), in.Name(b)) {
					p.AddFact(asp.A(simPred(predName), asp.K(in.Name(a)), asp.K(in.Name(b))))
				}
			}
		}
	}
	return nil
}

// addAdomRules emits adom(Xi) :- r_P(X1,...,Xn) for every relation and
// position.
func (en *Encoder) addAdomRules(p *asp.Program) {
	for _, rel := range en.d.Schema().Relations() {
		args := make([]asp.Term, rel.Arity())
		for i := range args {
			args[i] = asp.V(fmt.Sprintf("X%d", i+1))
		}
		body := asp.Pos(asp.A(relPred(rel.Name), args...))
		for i := range args {
			p.Add(asp.NewRule(asp.A(PredAdom, args[i]), body))
		}
	}
}

// addEquivalenceRules emits reflexivity, symmetry and transitivity.
func (en *Encoder) addEquivalenceRules(p *asp.Program) {
	x, y, z := asp.V("X"), asp.V("Y"), asp.V("Z")
	p.Add(asp.NewRule(asp.A(PredEq, x, x), asp.Pos(asp.A(PredAdom, x))))
	p.Add(asp.NewRule(asp.A(PredEq, y, x), asp.Pos(asp.A(PredEq, x, y))))
	p.Add(asp.NewRule(asp.A(PredEq, x, z),
		asp.Pos(asp.A(PredEq, x, y)), asp.Pos(asp.A(PredEq, y, z))))
}

// addChoiceRules emits the two rules capturing the choice to adopt or
// reject an active (soft-derivable) pair.
func (en *Encoder) addChoiceRules(p *asp.Program) {
	x, y := asp.V("X"), asp.V("Y")
	p.Add(asp.NewRule(asp.A(PredEq, x, y),
		asp.Pos(asp.A(PredActive, x, y)), asp.Not(asp.A(PredNeq, x, y))))
	p.Add(asp.NewRule(asp.A(PredNeq, x, y),
		asp.Pos(asp.A(PredActive, x, y)), asp.Not(asp.A(PredEq, x, y))))
}

// qPlus implements the q+ transformation of Section 5.2: every variable
// occurrence gets a fresh copy, copies of the same variable are chained
// with eq atoms, and constants are interpreted up to eq via a fresh
// variable joined to the constant. For rules, the distinguished
// variables keep their own names at their first occurrence. It returns
// the positive body literals plus, for inequality atoms (φ+ only), the
// negative "not eq" literals.
func (en *Encoder) qPlus(atoms []cq.Atom, headVars []string) ([]asp.Literal, error) {
	in := en.d.Interner()
	head := make(map[string]bool, len(headVars))
	for _, h := range headVars {
		head[h] = true
	}
	// copies[v] lists the ASP variables standing for occurrences of v.
	copies := make(map[string][]asp.Term)
	fresh := 0
	newCopy := func(v string) asp.Term {
		if head[v] && len(copies[v]) == 0 {
			t := asp.V("H_" + sanitizeVar(v))
			copies[v] = append(copies[v], t)
			return t
		}
		fresh++
		t := asp.V(fmt.Sprintf("V_%s_%d", sanitizeVar(v), fresh))
		copies[v] = append(copies[v], t)
		return t
	}
	constCopies := 0

	var pos []asp.Literal
	var neqAtoms []cq.Atom
	for _, a := range atoms {
		if a.Kind == cq.KindNeq {
			neqAtoms = append(neqAtoms, a)
			continue
		}
		args := make([]asp.Term, len(a.Args))
		for j, t := range a.Args {
			if t.IsVar {
				args[j] = newCopy(t.Name)
				continue
			}
			// Constant: a fresh variable eq-joined to the constant, so
			// merged variants of the constant also match.
			constCopies++
			cv := asp.V(fmt.Sprintf("C%d", constCopies))
			args[j] = cv
			pos = append(pos, asp.Pos(asp.A(PredEq, cv, asp.K(in.Name(t.Const)))))
		}
		switch a.Kind {
		case cq.KindRel:
			pos = append(pos, asp.Pos(asp.A(relPred(a.Pred), args...)))
		case cq.KindSim:
			pos = append(pos, asp.Pos(asp.A(simPred(a.Pred), args...)))
		}
	}
	// Chain the copies of each variable with eq (transitivity in the
	// program closes the chain).
	vars := make([]string, 0, len(copies))
	for v := range copies {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		cs := copies[v]
		for i := 1; i < len(cs); i++ {
			pos = append(pos, asp.Pos(asp.A(PredEq, cs[i-1], cs[i])))
		}
	}
	// Head variables must have at least one occurrence.
	for _, h := range headVars {
		if len(copies[h]) == 0 {
			return nil, fmt.Errorf("encode: distinguished variable %q does not occur in the body", h)
		}
	}
	// Inequalities: not eq between every pair of copies (φ+ only).
	var lits []asp.Literal
	lits = append(lits, pos...)
	for _, a := range neqAtoms {
		left := en.copiesOf(a.Args[0], copies)
		right := en.copiesOf(a.Args[1], copies)
		if left == nil || right == nil {
			return nil, fmt.Errorf("encode: inequality over a variable with no relational occurrence")
		}
		for _, l := range left {
			for _, r := range right {
				lits = append(lits, asp.Not(asp.A(PredEq, l, r)))
			}
		}
	}
	return lits, nil
}

// copiesOf resolves an inequality argument to its list of copies (for a
// variable) or a singleton constant term.
func (en *Encoder) copiesOf(t cq.Term, copies map[string][]asp.Term) []asp.Term {
	if t.IsVar {
		return copies[t.Name]
	}
	return []asp.Term{asp.K(en.d.Interner().Name(t.Const))}
}

func sanitizeVar(v string) string { return sanitize(v) }

// addRule emits eq(x,y) :- q+ for hard rules and active(x,y) :- q+ for
// soft rules.
func (en *Encoder) addRule(p *asp.Program, r *rules.Rule) error {
	lits, err := en.qPlus(r.Body.Atoms, r.Body.Head)
	if err != nil {
		return fmt.Errorf("encode: rule %s: %w", r.Name, err)
	}
	hx := asp.V("H_" + sanitizeVar(r.X()))
	hy := asp.V("H_" + sanitizeVar(r.Y()))
	if r.X() == r.Y() {
		hy = hx
	}
	headPred := PredActive
	if r.Kind == rules.Hard {
		headPred = PredEq
	}
	p.Add(asp.NewRule(asp.A(headPred, hx, hy), lits...))
	return nil
}

// addDenial emits :- φ+.
func (en *Encoder) addDenial(p *asp.Program, dn *rules.Denial) error {
	lits, err := en.qPlus(dn.Atoms, nil)
	if err != nil {
		return fmt.Errorf("encode: denial %s: %w", dn.Name, err)
	}
	p.Add(asp.Constraint(lits...))
	return nil
}

// Solver grounds Π_Sol and wraps stable-model solving with solution
// extraction. The grounding is computed once; each enumeration method
// runs on a fresh stable-model solver (enumeration saturates a solver
// with blocking clauses, so solvers are single-use).
type Solver struct {
	en      *Encoder
	gp      *asp.GroundProgram
	eqAtoms []int // ground eq/2 atom ids, the projection target
	rec     obs.Recorder
	budget  *limits.Budget // nil = unlimited
}

// NewSolver builds and grounds the encoding under a resource budget.
// Grounding is recorded as an asp.ground span with size gauges and
// charges MaxGroundRules; every enumeration method runs under an
// asp.solve span on a fresh stable-model solver whose completion,
// loop formulas and blocking clauses are charged against the same
// budget's MaxClauses, and its decisions against MaxDecisions.
// Exhaustion or cancellation surfaces as a typed error matching
// limits.ErrBudget or limits.ErrCanceled — from NewSolver itself when
// grounding is cut short, or from the enumeration methods afterwards.
// A nil budget is unlimited and a nil recorder is a no-op.
func NewSolver(en *Encoder, b *limits.Budget, rec obs.Recorder) (*Solver, error) {
	rec = obs.OrNop(rec)
	prog, err := en.Program()
	if err != nil {
		return nil, err
	}
	gp, err := asp.Ground(prog, b, rec)
	if err != nil {
		return nil, err
	}
	return &Solver{en: en, gp: gp, eqAtoms: gp.AtomsOf(PredEq), rec: rec, budget: b}, nil
}

// Recorder returns the solver's instrumentation recorder (never nil).
func (s *Solver) Recorder() obs.Recorder { return s.rec }

// Stats returns a snapshot of the metrics recorded so far. Solvers
// built without a recorder return an empty snapshot.
func (s *Solver) Stats() obs.Snapshot { return s.rec.Snapshot() }

// Ground returns the ground program (for instrumentation).
func (s *Solver) Ground() *asp.GroundProgram { return s.gp }

// extract converts a stable model to the equivalence relation of its
// eq-projection over the database's interned constants.
func (s *Solver) extract(model []bool) *eqrel.Partition {
	in := s.en.d.Interner()
	part := eqrel.New(in.Size())
	for _, id := range s.eqAtoms {
		if !model[id] {
			continue
		}
		ga := s.gp.Atom(id)
		a, okA := in.Lookup(s.gp.ConstName(ga.Args[0]))
		b, okB := in.Lookup(s.gp.ConstName(ga.Args[1]))
		if okA && okB && a != b {
			part.Union(a, b)
		}
	}
	return part
}

// Solutions enumerates Sol(D, Σ) via stable models (Theorem 10),
// calling visit with each solution; visit returning false stops. Under
// the solver's budget (NewSolver) enumeration stops early with a
// typed error matching limits.ErrBudget or limits.ErrCanceled; solutions
// already visited are a sound partial enumeration.
func (s *Solver) Solutions(visit func(E *eqrel.Partition) bool) error {
	sp := s.rec.Start(obs.SpanASPSolve).AttrStr("mode", "solutions")
	defer sp.End()
	return asp.NewStableSolver(s.gp, s.budget, s.rec).Enumerate(func(m []bool) bool {
		return visit(s.extract(m))
	})
}

// MaximalSolutions enumerates MaxSol(D, Σ) via ⊆-maximal eq-projections
// (Section 5.3). Under the solver's budget (NewSolver), solutions
// visited before a budget or cancellation error are genuinely maximal;
// the enumeration may miss others.
func (s *Solver) MaximalSolutions(visit func(E *eqrel.Partition) bool) error {
	sp := s.rec.Start(obs.SpanASPSolve).AttrStr("mode", "maximal")
	defer sp.End()
	return asp.NewStableSolver(s.gp, s.budget, s.rec).MaximalProjections(s.eqAtoms, func(m []bool) bool {
		return visit(s.extract(m))
	})
}

// Existence reports coherence of (Π_Sol, D): whether any solution
// exists, with a witness. Under the solver's budget (NewSolver) a
// budget or cancellation error leaves the witness nil, ok false, and
// the question undecided.
func (s *Solver) Existence() (*eqrel.Partition, bool, error) {
	sp := s.rec.Start(obs.SpanASPSolve).AttrStr("mode", "existence")
	defer sp.End()
	m, ok, err := asp.NewStableSolver(s.gp, s.budget, s.rec).Next()
	if err != nil || !ok {
		return nil, false, err
	}
	return s.extract(m), true, nil
}
