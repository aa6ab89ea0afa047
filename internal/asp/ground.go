package asp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/db"
	"repro/internal/limits"
	"repro/internal/obs"
)

// GroundAtom is an instantiated atom: a predicate plus constant ids
// into the grounder's symbol table.
type GroundAtom struct {
	Pred string
	Args []int
}

// GroundRule is an instantiated rule over atom ids. Head is -1 for
// integrity constraints.
type GroundRule struct {
	Head int
	Pos  []int
	Neg  []int
}

// GroundProgram is the result of grounding: a set of ground rules over
// densely numbered atoms.
type GroundProgram struct {
	syms    []string     // constant id -> name
	atoms   []GroundAtom // atom id -> atom
	Rules   []GroundRule // rules with Head >= 0 and constraints (Head == -1)
	derived []bool       // atom id -> appears in the positive projection
}

// NumAtoms returns the number of ground atoms.
func (g *GroundProgram) NumAtoms() int { return len(g.atoms) }

// Atom returns the ground atom with the given id.
func (g *GroundProgram) Atom(id int) GroundAtom { return g.atoms[id] }

// AtomString renders atom id in clingo syntax.
func (g *GroundProgram) AtomString(id int) string {
	a := g.atoms[id]
	if len(a.Args) == 0 {
		return a.Pred
	}
	parts := make([]string, len(a.Args))
	for i, s := range a.Args {
		parts[i] = quoteConst(g.syms[s])
	}
	return a.Pred + "(" + strings.Join(parts, ",") + ")"
}

// ConstName returns the name of a symbol id.
func (g *GroundProgram) ConstName(id int) string { return g.syms[id] }

// AtomsOf returns the sorted ids of atoms with the given predicate.
func (g *GroundProgram) AtomsOf(pred string) []int {
	var out []int
	for id, a := range g.atoms {
		if a.Pred == pred {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// relation stores the derived extension of one predicate during
// grounding. Relations are keyed by predicate name AND arity (see
// extKey): as in clingo, p/1 and p/2 are distinct predicates. Keying by
// name alone mixed tuples of different lengths into one relation, and
// the join index then read past the end of the shorter tuples — a
// crash the grounder fuzzer found on `p. q :- p(X).`.
type relation struct {
	pred   string
	tuples [][]int
	seen   map[string]bool
	index  []map[int][]int // position -> const -> tuple indices
	arity  int
}

func newRelation(pred string, arity int) *relation {
	return &relation{pred: pred, seen: make(map[string]bool), arity: arity}
}

// extKey is the extension-map key of a predicate at a given arity.
func extKey(pred string, arity int) string {
	return pred + "/" + strconv.Itoa(arity)
}

func (r *relation) insert(args []int) bool {
	k := db.IntsKey(args)
	if r.seen[k] {
		return false
	}
	r.seen[k] = true
	r.tuples = append(r.tuples, args)
	r.index = nil
	return true
}

func (r *relation) idx(pos int) map[int][]int {
	if r.index == nil {
		r.index = make([]map[int][]int, r.arity)
	}
	if r.index[pos] == nil {
		m := make(map[int][]int)
		for i, t := range r.tuples {
			m[t[pos]] = append(m[t[pos]], i)
		}
		r.index[pos] = m
	}
	return r.index[pos]
}

// grounder instantiates a program bottom-up along its positive
// projection (semi-naive evaluation), recording every ground rule whose
// positive body lies within the projection.
type grounder struct {
	prog   *Program
	budget *limits.Budget // nil = unlimited

	symID map[string]int
	syms  []string

	atomID map[string]int
	atoms  []GroundAtom

	ext   map[string]*relation // extKey(pred, arity) -> full derived extension
	rules []GroundRule
	seen  map[string]bool // ground rule dedup
}

// Ground instantiates the program. The program must be safe
// (Validate). Grounding runs under an asp.ground span and publishes the
// resulting program size as the asp.ground.rules / asp.ground.atoms
// gauges. It stops with a typed error matching limits.ErrBudget when the
// emitted ground rules exceed the budget's MaxGroundRules, or
// limits.ErrCanceled when the budget's context is cancelled or its
// deadline expires. A nil budget is unlimited and a nil recorder is a
// no-op.
func Ground(p *Program, b *limits.Budget, rec obs.Recorder) (*GroundProgram, error) {
	rec = obs.OrNop(rec)
	sp := rec.Start(obs.SpanASPGround)
	defer sp.End()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &grounder{
		prog:   p,
		budget: b,
		symID:  make(map[string]int),
		atomID: make(map[string]int),
		ext:    make(map[string]*relation),
		seen:   make(map[string]bool),
	}
	if err := g.run(); err != nil {
		countBudgetStop(rec, err)
		return nil, err
	}
	gp := &GroundProgram{
		syms:    g.syms,
		atoms:   g.atoms,
		Rules:   g.rules,
		derived: make([]bool, len(g.atoms)),
	}
	for _, rel := range g.ext {
		for _, tup := range rel.tuples {
			gp.derived[g.atomIDOf(rel.pred, tup)] = true
		}
	}
	rec.Gauge(obs.ASPGroundRules, int64(len(gp.Rules)))
	rec.Gauge(obs.ASPGroundAtoms, int64(len(gp.atoms)))
	// Gauges keep only the latest grounding; the histogram keeps the
	// distribution of ground-program sizes across the run.
	rec.Observe(obs.HistASPGroundRules, int64(len(gp.Rules)))
	sp.AttrInt("rules", int64(len(gp.Rules))).AttrInt("atoms", int64(len(gp.atoms)))
	return gp, nil
}

// countBudgetStop records a budget or cancellation abort on the
// asp.budget.* counters; other errors are not counted.
func countBudgetStop(rec obs.Recorder, err error) {
	switch {
	case isCanceled(err):
		rec.Inc(obs.ASPBudgetCanceled, 1)
	case isBudget(err):
		rec.Inc(obs.ASPBudgetExhausted, 1)
	}
}

func (g *grounder) sym(name string) int {
	if id, ok := g.symID[name]; ok {
		return id
	}
	id := len(g.syms)
	g.symID[name] = id
	g.syms = append(g.syms, name)
	return id
}

func (g *grounder) atomIDOf(pred string, args []int) int {
	key := pred + "/" + db.IntsKey(args)
	if id, ok := g.atomID[key]; ok {
		return id
	}
	id := len(g.atoms)
	g.atomID[key] = id
	g.atoms = append(g.atoms, GroundAtom{Pred: pred, Args: append([]int(nil), args...)})
	return id
}

// derive records args in pred's extension, returning true if new.
func (g *grounder) derive(pred string, args []int) bool {
	key := extKey(pred, len(args))
	rel := g.ext[key]
	if rel == nil {
		rel = newRelation(pred, len(args))
		g.ext[key] = rel
	}
	return rel.insert(append([]int(nil), args...))
}

// addRule records a ground rule instance once, charging the budget for
// each new instance. The dedup key is the shared varint encoding of
// head (zigzag handles the -1 constraint head), positive-body length,
// positive body, then negative body — the length field delimits the two
// lists.
func (g *grounder) addRule(r GroundRule) error {
	buf := make([]byte, 0, (len(r.Pos)+len(r.Neg)+2)*2)
	buf = db.AppendInt(buf, r.Head)
	buf = db.AppendInt(buf, len(r.Pos))
	for _, p := range r.Pos {
		buf = db.AppendInt(buf, p)
	}
	for _, n := range r.Neg {
		buf = db.AppendInt(buf, n)
	}
	k := string(buf)
	if g.seen[k] {
		return nil
	}
	g.seen[k] = true
	g.rules = append(g.rules, r)
	return g.budget.AddGroundRules(1)
}

// instantiate grounds atom a under binding, interning constants.
func (g *grounder) instantiate(a Atom, binding map[string]int) ([]int, error) {
	args := make([]int, len(a.Args))
	for i, t := range a.Args {
		if t.Var {
			v, ok := binding[t.Name]
			if !ok {
				return nil, fmt.Errorf("asp: unbound variable %s in %s", t.Name, a)
			}
			args[i] = v
		} else {
			args[i] = g.sym(t.Name)
		}
	}
	return args, nil
}

// emit records the ground instance of rule r under binding and derives
// its head (when present), returning whether the head atom is new.
func (g *grounder) emit(r Rule, binding map[string]int) (bool, error) {
	gr := GroundRule{Head: -1}
	for _, l := range r.Body {
		args, err := g.instantiate(l.Atom, binding)
		if err != nil {
			return false, err
		}
		id := g.atomIDOf(l.Atom.Pred, args)
		if l.Neg {
			gr.Neg = append(gr.Neg, id)
		} else {
			gr.Pos = append(gr.Pos, id)
		}
	}
	newAtom := false
	if r.Head != nil {
		args, err := g.instantiate(*r.Head, binding)
		if err != nil {
			return false, err
		}
		gr.Head = g.atomIDOf(r.Head.Pred, args)
		newAtom = g.derive(r.Head.Pred, args)
	}
	if err := g.addRule(gr); err != nil {
		return newAtom, err
	}
	return newAtom, nil
}

// matchBody enumerates bindings of the positive body literals of r,
// requiring the literal at position deltaPos (an index into the positive
// literal list) to match within delta; deltaPos < 0 means no delta
// restriction (used for rules with empty positive bodies or the final
// constraint pass). cb returns false to stop.
func (g *grounder) matchBody(posLits []Atom, deltaPos int, delta map[string]*relation,
	cb func(binding map[string]int) (bool, error)) error {
	// Greedy join ordering: the delta-restricted literal first (it is
	// the most selective), then repeatedly the literal with the most
	// bound variables (ties: smaller extension). Without this, q+
	// bodies — relational atoms followed by eq-join atoms — enumerate
	// full cross products before any join condition applies.
	order := make([]int, 0, len(posLits))
	used := make([]bool, len(posLits))
	boundVars := make(map[string]bool)
	noteBound := func(i int) {
		for _, t := range posLits[i].Args {
			if t.Var {
				boundVars[t.Name] = true
			}
		}
	}
	if deltaPos >= 0 {
		order = append(order, deltaPos)
		used[deltaPos] = true
		noteBound(deltaPos)
	}
	for len(order) < len(posLits) {
		best, bestScore, bestSize := -1, -1, 0
		for i, a := range posLits {
			if used[i] {
				continue
			}
			score := 0
			for _, t := range a.Args {
				if !t.Var || boundVars[t.Name] {
					score++
				}
			}
			size := 0
			if rel := g.ext[extKey(a.Pred, len(a.Args))]; rel != nil {
				size = len(rel.tuples)
			}
			if score > bestScore || score == bestScore && (best == -1 || size < bestSize) {
				best, bestScore, bestSize = i, score, size
			}
		}
		order = append(order, best)
		used[best] = true
		noteBound(best)
	}

	binding := make(map[string]int)
	var rec func(step int) (bool, error)
	rec = func(step int) (bool, error) {
		if step == len(order) {
			return cb(binding)
		}
		i := order[step]
		a := posLits[i]
		var rel *relation
		if i == deltaPos {
			rel = delta[extKey(a.Pred, len(a.Args))]
		} else {
			rel = g.ext[extKey(a.Pred, len(a.Args))]
		}
		if rel == nil {
			return true, nil
		}
		// Choose the most selective bound position for index lookup.
		bestPos, bestLen := -1, 0
		var bestList []int
		for pos, t := range a.Args {
			val := -1
			if !t.Var {
				if id, ok := g.symID[t.Name]; ok {
					val = id
				} else {
					return true, nil // constant never derived anywhere
				}
			} else if b, ok := binding[t.Name]; ok {
				val = b
			}
			if val < 0 {
				continue
			}
			list := rel.idx(pos)[val]
			if bestPos == -1 || len(list) < bestLen {
				bestPos, bestLen, bestList = pos, len(list), list
			}
		}
		try := func(tup []int) (bool, error) {
			if err := g.budget.Tick(); err != nil {
				return false, err
			}
			var bound []string
			ok := true
			for pos, t := range a.Args {
				want := -1
				if !t.Var {
					want = g.symID[t.Name]
				} else if b, have := binding[t.Name]; have {
					want = b
				}
				if want >= 0 {
					if tup[pos] != want {
						ok = false
						break
					}
					continue
				}
				binding[t.Name] = tup[pos]
				bound = append(bound, t.Name)
			}
			cont, err := true, error(nil)
			if ok {
				cont, err = rec(step + 1)
			}
			for _, v := range bound {
				delete(binding, v)
			}
			return cont, err
		}
		if bestPos >= 0 {
			for _, ti := range bestList {
				if cont, err := try(rel.tuples[ti]); !cont || err != nil {
					return cont, err
				}
			}
			return true, nil
		}
		for _, tup := range rel.tuples {
			if cont, err := try(tup); !cont || err != nil {
				return cont, err
			}
		}
		return true, nil
	}
	_, err := rec(0)
	return err
}

func posAtoms(r Rule) []Atom {
	var out []Atom
	for _, l := range r.Body {
		if !l.Neg {
			out = append(out, l.Atom)
		}
	}
	return out
}

func (g *grounder) run() error {
	var defRules []Rule  // rules with a head and nonempty positive body
	var seedRules []Rule // rules with a head and empty positive body
	var constraints []Rule
	for _, r := range g.prog.Rules {
		switch {
		case r.Head == nil:
			constraints = append(constraints, r)
		case len(posAtoms(r)) == 0:
			seedRules = append(seedRules, r)
		default:
			defRules = append(defRules, r)
		}
	}

	// Seed: facts and negative-body-only rules (ground by safety).
	delta := make(map[string]*relation)
	noteDelta := func(pred string, args []int) {
		key := extKey(pred, len(args))
		rel := delta[key]
		if rel == nil {
			rel = newRelation(pred, len(args))
			delta[key] = rel
		}
		rel.insert(append([]int(nil), args...))
	}
	for _, r := range seedRules {
		binding := map[string]int{}
		isNew, err := g.emit(r, binding)
		if err != nil {
			return err
		}
		if isNew {
			args, _ := g.instantiate(*r.Head, binding)
			noteDelta(r.Head.Pred, args)
		}
	}

	// Semi-naive fixpoint over the positive projection.
	for {
		nextDelta := make(map[string]*relation)
		progressed := false
		for _, r := range defRules {
			pl := posAtoms(r)
			for dp := range pl {
				if delta[extKey(pl[dp].Pred, len(pl[dp].Args))] == nil {
					continue
				}
				err := g.matchBody(pl, dp, delta, func(binding map[string]int) (bool, error) {
					isNew, err := g.emit(r, binding)
					if err != nil {
						return false, err
					}
					if isNew {
						args, _ := g.instantiate(*r.Head, binding)
						key := extKey(r.Head.Pred, len(args))
						rel := nextDelta[key]
						if rel == nil {
							rel = newRelation(r.Head.Pred, len(args))
							nextDelta[key] = rel
						}
						rel.insert(args)
						progressed = true
					}
					return true, nil
				})
				if err != nil {
					return err
				}
			}
		}
		if !progressed {
			break
		}
		delta = nextDelta
	}

	// Ground the constraints against the full projection.
	for _, r := range constraints {
		r := r
		pl := posAtoms(r)
		if len(pl) == 0 {
			// A ground constraint with only negative literals.
			if _, err := g.emit(r, map[string]int{}); err != nil {
				return err
			}
			continue
		}
		err := g.matchBody(pl, -1, nil, func(binding map[string]int) (bool, error) {
			_, err := g.emit(r, binding)
			return true, err
		})
		if err != nil {
			return err
		}
	}
	return nil
}
