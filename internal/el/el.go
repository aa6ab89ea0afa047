// Package el implements the declarative entity-linking framework of
// Burdick et al. (the EL framework of Section 6.1 of the LACE paper),
// in its L2-style dialect: a link relation constrained by a matching
// constraint (a disjunction of positive conditions over the schema and
// the link relation itself, possibly with an x = y disjunct), two
// inclusion dependencies bounding the link's columns, and optional
// functional dependencies over the link.
//
// Its purpose here is the expressivity separation of Theorem 11: the
// static semantics of EL admits mutually-supporting link sets, so the
// natural same-generation specification H* certifies non-sg links on
// dgbc graphs, while LACE's dynamic semantics does not.
package el

import (
	"fmt"
	"sort"

	"repro/internal/cq"
	"repro/internal/db"
)

// Condition is one disjunct of a matching constraint: either the
// equality x = y, or a conjunction of atoms over the schema plus the
// link relation (whose atoms use the reserved predicate name given in
// Spec.Link). The distinguished variables "x" and "y" refer to the link
// pair; all other variables are existential.
type Condition struct {
	EqXY  bool
	Atoms []cq.Atom
}

// Spec is an entity-linking specification H = ⟨{L}, S, Ω⟩ with a single
// link symbol.
type Spec struct {
	// Link is the link relation name (must not clash with the schema).
	Link string
	// DomRel/DomAttr bound the link's columns: both components of every
	// link must occur in column DomAttr of relation DomRel (the
	// inclusion dependencies L(X) ⊆ R(A), L(Y) ⊆ R(A)).
	DomRel  string
	DomAttr string
	// Conditions is the disjunction on the right-hand side of the
	// matching constraint L(x,y) → C1 ∨ ... ∨ Ck.
	Conditions []Condition
	// FDXY / FDYX enable the functional dependencies L: X → Y and
	// L: Y → X.
	FDXY, FDYX bool
}

// Link is an ordered pair (EL links are not required to be symmetric).
type Link struct {
	A, B db.Const
}

// LinkSet is a set of links.
type LinkSet map[Link]bool

// Sorted returns the links in a deterministic order.
func (ls LinkSet) Sorted() []Link {
	out := make([]Link, 0, len(ls))
	for l := range ls {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

func (ls LinkSet) clone() LinkSet {
	out := make(LinkSet, len(ls))
	for l := range ls {
		out[l] = true
	}
	return out
}

// Evaluator computes solutions and certain links of a specification
// over a database.
type Evaluator struct {
	spec *Spec
	d    *db.Database
	// extended schema/database template with the link relation.
	schema *db.Schema
	// plans holds one prepared plan per non-equality condition (nil for
	// EqXY disjuncts), indexed like spec.Conditions. The link pair is
	// bound at run time, so each plan is prepared once per evaluator.
	plans []*cq.Plan
}

// NewEvaluator validates the specification against the database schema.
func NewEvaluator(spec *Spec, d *db.Database) (*Evaluator, error) {
	if _, clash := d.Schema().Relation(spec.Link); clash {
		return nil, fmt.Errorf("el: link name %q clashes with a schema relation", spec.Link)
	}
	rel, ok := d.Schema().Relation(spec.DomRel)
	if !ok {
		return nil, fmt.Errorf("el: inclusion relation %q not in schema", spec.DomRel)
	}
	if rel.AttrIndex(spec.DomAttr) < 0 {
		return nil, fmt.Errorf("el: inclusion attribute %q not in %s", spec.DomAttr, rel)
	}
	// Build the extended schema S ∪ {L}.
	es := db.NewSchema()
	for _, r := range d.Schema().Relations() {
		es.MustAdd(r.Name, r.Attrs...)
	}
	es.MustAdd(spec.Link, "x", "y")
	plans := make([]*cq.Plan, len(spec.Conditions))
	for i, c := range spec.Conditions {
		if c.EqXY {
			continue
		}
		if err := cq.Validate(c.Atoms, nil, es, nil); err != nil {
			return nil, fmt.Errorf("el: condition %d: %w", i, err)
		}
		p, err := cq.Prepare(c.Atoms, nil, es, nil)
		if err != nil {
			return nil, fmt.Errorf("el: condition %d: %w", i, err)
		}
		plans[i] = p
	}
	return &Evaluator{spec: spec, d: d, schema: es, plans: plans}, nil
}

// Domain returns the candidate pool: all constants in the inclusion
// column.
func (ev *Evaluator) Domain() []db.Const {
	rel, _ := ev.d.Schema().Relation(ev.spec.DomRel)
	pos := rel.AttrIndex(ev.spec.DomAttr)
	seen := make(map[db.Const]bool)
	var out []db.Const
	for _, tup := range ev.d.Tuples(ev.spec.DomRel) {
		if !seen[tup[pos]] {
			seen[tup[pos]] = true
			out = append(out, tup[pos])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AllCandidates returns the full candidate link set Domain × Domain.
func (ev *Evaluator) AllCandidates() LinkSet {
	dom := ev.Domain()
	ls := make(LinkSet, len(dom)*len(dom))
	for _, a := range dom {
		for _, b := range dom {
			ls[Link{a, b}] = true
		}
	}
	return ls
}

// withLinks materialises D ∪ J over the extended schema.
func (ev *Evaluator) withLinks(j LinkSet) *db.Database {
	d := db.New(ev.schema, ev.d.Interner())
	for _, f := range ev.d.Facts() {
		if _, err := d.Insert(f.Rel, f.Args...); err != nil {
			panic("el: schema mismatch: " + err.Error())
		}
	}
	for l := range j {
		if _, err := d.Insert(ev.spec.Link, l.A, l.B); err != nil {
			panic("el: link insert: " + err.Error())
		}
	}
	return d
}

// satisfied reports whether link l satisfies some disjunct of the
// matching constraint in (D, J). Each condition's prepared plan is run
// with the link pair pre-bound (x := l.A, y := l.B).
func (ev *Evaluator) satisfied(l Link, dj *db.Database) (bool, error) {
	for i, c := range ev.spec.Conditions {
		if c.EqXY {
			if l.A == l.B {
				return true, nil
			}
			continue
		}
		if ev.plans[i].Holds(dj, cq.RunSpec{Bind: map[string]db.Const{"x": l.A, "y": l.B}}) {
			return true, nil
		}
	}
	return false, nil
}

// fdViolation returns a pair of links violating an enabled FD, if any.
func (ev *Evaluator) fdViolation(j LinkSet) (Link, Link, bool) {
	if ev.spec.FDXY {
		byX := make(map[db.Const]Link)
		for l := range j {
			if prev, ok := byX[l.A]; ok && prev.B != l.B {
				return prev, l, true
			}
			byX[l.A] = l
		}
	}
	if ev.spec.FDYX {
		byY := make(map[db.Const]Link)
		for l := range j {
			if prev, ok := byY[l.B]; ok && prev.A != l.A {
				return prev, l, true
			}
			byY[l.B] = l
		}
	}
	return Link{}, Link{}, false
}

// IsSolution reports whether J is a solution for D w.r.t. the
// specification: inclusion dependencies, matching constraint, and FDs
// all hold in (D, J).
func (ev *Evaluator) IsSolution(j LinkSet) (bool, error) {
	dom := make(map[db.Const]bool)
	for _, c := range ev.Domain() {
		dom[c] = true
	}
	for l := range j {
		if !dom[l.A] || !dom[l.B] {
			return false, nil
		}
	}
	if _, _, bad := ev.fdViolation(j); bad {
		return false, nil
	}
	dj := ev.withLinks(j)
	for l := range j {
		ok, err := ev.satisfied(l, dj)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// gfp computes the greatest solution contained in start, ignoring FDs:
// repeatedly remove links whose matching constraint fails. Because
// conditions are positive in L, every FD-free solution within start is
// contained in the result (Knaster–Tarski).
func (ev *Evaluator) gfp(start LinkSet) (LinkSet, error) {
	cur := start.clone()
	for {
		dj := ev.withLinks(cur)
		var drop []Link
		for l := range cur {
			ok, err := ev.satisfied(l, dj)
			if err != nil {
				return nil, err
			}
			if !ok {
				drop = append(drop, l)
			}
		}
		if len(drop) == 0 {
			return cur, nil
		}
		for _, l := range drop {
			delete(cur, l)
		}
	}
}

// MaximalSolutions enumerates the ⊆-maximal solutions. Without FDs the
// greatest fixpoint is the unique maximal solution; with FDs the
// violating pairs are resolved by branching (exponential in the worst
// case — intended for the small graphs of the Section 6 experiments).
func (ev *Evaluator) MaximalSolutions() ([]LinkSet, error) {
	top, err := ev.gfp(ev.AllCandidates())
	if err != nil {
		return nil, err
	}
	if !ev.spec.FDXY && !ev.spec.FDYX {
		return []LinkSet{top}, nil
	}
	var sols []LinkSet
	seen := make(map[string]bool)
	var rec func(s LinkSet) error
	rec = func(s LinkSet) error {
		fixed, err := ev.gfp(s)
		if err != nil {
			return err
		}
		key := linkKey(fixed)
		if seen[key] {
			return nil
		}
		seen[key] = true
		l1, l2, bad := ev.fdViolation(fixed)
		if !bad {
			sols = append(sols, fixed)
			return nil
		}
		for _, drop := range []Link{l1, l2} {
			next := fixed.clone()
			delete(next, drop)
			if err := rec(next); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(top); err != nil {
		return nil, err
	}
	// Filter to the maximal antichain.
	var maximal []LinkSet
	for i, s := range sols {
		dominated := false
		for k, o := range sols {
			if i != k && subset(s, o) && !subset(o, s) {
				dominated = true
				break
			}
		}
		if !dominated {
			maximal = append(maximal, s)
		}
	}
	return maximal, nil
}

// CertainLinks returns the links present in every maximal solution.
func (ev *Evaluator) CertainLinks() (LinkSet, error) {
	sols, err := ev.MaximalSolutions()
	if err != nil {
		return nil, err
	}
	if len(sols) == 0 {
		return LinkSet{}, nil
	}
	out := sols[0].clone()
	for _, s := range sols[1:] {
		for l := range out {
			if !s[l] {
				delete(out, l)
			}
		}
	}
	return out, nil
}

func subset(a, b LinkSet) bool {
	for l := range a {
		if !b[l] {
			return false
		}
	}
	return true
}

func linkKey(s LinkSet) string {
	links := s.Sorted()
	b := make([]byte, 0, len(links)*8)
	for _, l := range links {
		b = append(b, db.TupleKey([]db.Const{l.A, l.B})...)
	}
	return string(b)
}

// SameGenerationSpec returns the specification H* of Appendix D: the
// matching constraint
//
//	L(x,y) → (V(x) ∧ V(y) ∧ x = y) ∨ ∃z,z′.(E(z,x) ∧ E(z′,y) ∧ L(z,z′))
//
// with inclusion dependencies L(X) ⊆ V(A), L(Y) ⊆ V(A) and no FDs.
func SameGenerationSpec(link string) *Spec {
	return &Spec{
		Link:    link,
		DomRel:  "V",
		DomAttr: "a",
		Conditions: []Condition{
			{EqXY: true},
			{Atoms: []cq.Atom{
				cq.Rel("E", cq.Var("z"), cq.Var("x")),
				cq.Rel("E", cq.Var("zp"), cq.Var("y")),
				cq.Rel(link, cq.Var("z"), cq.Var("zp")),
			}},
		},
	}
}
