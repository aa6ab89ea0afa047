// Package cq implements conjunctive queries over the db substrate, the
// query language of LACE rule bodies and denial constraints: relational
// atoms, externally defined binary similarity atoms, and (for denial
// constraints) inequality atoms. Evaluation is by backtracking joins with
// greedy atom ordering and per-column hash indexes, through one
// prepared Plan per body (Plan.Run enumerates, Plan.Holds decides).
package cq

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/db"
	"repro/internal/sim"
)

// Term is a variable or a constant.
type Term struct {
	IsVar bool
	Name  string   // variable name when IsVar
	Const db.Const // interned constant otherwise
}

// Var returns a variable term.
func Var(name string) Term { return Term{IsVar: true, Name: name} }

// C returns a constant term.
func C(c db.Const) Term { return Term{Const: c} }

func (t Term) String() string {
	if t.IsVar {
		return t.Name
	}
	return fmt.Sprintf("#%d", t.Const)
}

// Kind classifies atoms.
type Kind int

// Atom kinds.
const (
	KindRel Kind = iota // relational atom R(t1,...,tk)
	KindSim             // similarity atom p(t1,t2)
	KindNeq             // inequality t1 != t2 (denials and queries; Spec.Validate rejects it in rule bodies)
)

// Atom is a relational, similarity, or inequality atom.
type Atom struct {
	Kind Kind
	Pred string // relation name (KindRel) or similarity predicate (KindSim)
	Args []Term
}

// Rel builds a relational atom.
func Rel(pred string, args ...Term) Atom {
	return Atom{Kind: KindRel, Pred: pred, Args: args}
}

// Sim builds a similarity atom.
func Sim(pred string, a, b Term) Atom {
	return Atom{Kind: KindSim, Pred: pred, Args: []Term{a, b}}
}

// Neq builds an inequality atom.
func Neq(a, b Term) Atom {
	return Atom{Kind: KindNeq, Args: []Term{a, b}}
}

func (a Atom) String() string {
	switch a.Kind {
	case KindNeq:
		return a.Args[0].String() + " != " + a.Args[1].String()
	default:
		parts := make([]string, len(a.Args))
		for i, t := range a.Args {
			parts[i] = t.String()
		}
		return a.Pred + "(" + strings.Join(parts, ",") + ")"
	}
}

// CQ is a conjunctive query with distinguished variables Head; a query
// with empty Head is Boolean. Variables not in Head are implicitly
// existentially quantified.
type CQ struct {
	Head  []string
	Atoms []Atom
}

// Vars returns the sorted set of variable names occurring in the atoms.
func Vars(atoms []Atom) []string {
	seen := make(map[string]bool)
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.IsVar {
				seen[t.Name] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// relVars returns the set of variables occurring in relational atoms.
func relVars(atoms []Atom) map[string]bool {
	seen := make(map[string]bool)
	for _, a := range atoms {
		if a.Kind != KindRel {
			continue
		}
		for _, t := range a.Args {
			if t.IsVar {
				seen[t.Name] = true
			}
		}
	}
	return seen
}

// Validate checks atoms against a schema and similarity registry: every
// relational atom refers to a declared relation with matching arity,
// similarity atoms are binary over registered predicates, and the query
// is safe — every variable (including head, similarity and inequality
// variables) occurs in some relational atom. sims may be nil when no
// similarity atoms occur.
func Validate(atoms []Atom, head []string, schema *db.Schema, sims *sim.Registry) error {
	rv := relVars(atoms)
	for _, a := range atoms {
		switch a.Kind {
		case KindRel:
			r, ok := schema.Relation(a.Pred)
			if !ok {
				return fmt.Errorf("cq: undeclared relation %q", a.Pred)
			}
			if len(a.Args) != r.Arity() {
				return fmt.Errorf("cq: %s has arity %d, atom has %d arguments", a.Pred, r.Arity(), len(a.Args))
			}
		case KindSim:
			if len(a.Args) != 2 {
				return fmt.Errorf("cq: similarity atom %s must be binary", a.Pred)
			}
			if sims == nil {
				return fmt.Errorf("cq: similarity atom %s used but no registry provided", a.Pred)
			}
			if _, ok := sims.Lookup(a.Pred); !ok {
				return fmt.Errorf("cq: unknown similarity predicate %q (have %v)", a.Pred, sims.Names())
			}
		case KindNeq:
			if len(a.Args) != 2 {
				return fmt.Errorf("cq: inequality atom must be binary")
			}
		}
		if a.Kind != KindRel {
			for _, t := range a.Args {
				if t.IsVar && !rv[t.Name] {
					return fmt.Errorf("cq: unsafe variable %q occurs only in non-relational atoms", t.Name)
				}
			}
		}
	}
	for _, h := range head {
		if !rv[h] {
			return fmt.Errorf("cq: unsafe head variable %q does not occur in a relational atom", h)
		}
	}
	return nil
}

// Validate checks the query against a schema and similarity registry.
func (q *CQ) Validate(schema *db.Schema, sims *sim.Registry) error {
	return Validate(q.Atoms, q.Head, schema, sims)
}

// String renders the query in the spec syntax, e.g.
// "R(x,y), p(x,z), x != y".
func (q *CQ) String() string {
	parts := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

// Rename returns a copy of the atoms with every variable v replaced by
// ren(v). Constants are unchanged.
func Rename(atoms []Atom, ren func(string) string) []Atom {
	out := make([]Atom, len(atoms))
	for i, a := range atoms {
		na := Atom{Kind: a.Kind, Pred: a.Pred, Args: make([]Term, len(a.Args))}
		for j, t := range a.Args {
			if t.IsVar {
				na.Args[j] = Var(ren(t.Name))
			} else {
				na.Args[j] = t
			}
		}
		out[i] = na
	}
	return out
}
