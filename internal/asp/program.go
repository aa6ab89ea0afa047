// Package asp implements an answer set programming engine for normal
// logic programs: a semi-naive grounder, Clark completion into CNF, a
// CDCL satisfiability core, stability checking via reduct least models
// with loop-formula refutation (the assat approach), model enumeration,
// brave and cautious consequences, and enumeration of stable models
// whose projection onto a designated predicate is ⊆-maximal — the
// preference needed to compute LACE's maximal solutions (Section 5.3 of
// the paper, standing in for metasp/asprin on top of clingo).
//
// The engine is a faithful substitute for the clingo pipeline the paper
// proposes: stable-model semantics is solver-independent, and the
// encode package's Theorem-10 tests cross-validate this engine against
// the native LACE semantics.
package asp

import (
	"fmt"
	"strings"
)

// Term is a constant or variable. Variables start with an uppercase
// letter or underscore, following standard ASP convention.
type Term struct {
	Name string
	Var  bool
}

// V returns a variable term.
func V(name string) Term { return Term{Name: name, Var: true} }

// K returns a constant term.
func K(name string) Term { return Term{Name: name} }

func (t Term) String() string {
	if t.Var {
		return t.Name
	}
	return quoteConst(t.Name)
}

// quoteConst renders a constant in clingo-compatible syntax: lowercase
// identifiers pass through, everything else is double-quoted with
// backslashes and double quotes escaped. (Escaping the backslash first
// matters: a constant whose value is a lone backslash must render as
// "\\", not "\", or re-parsing swallows the closing quote — a bug the
// parser round-trip fuzzer found.)
func quoteConst(s string) string {
	if s == "" {
		return `""`
	}
	plain := s[0] >= 'a' && s[0] <= 'z' || s[0] >= '0' && s[0] <= '9'
	if plain {
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
				continue
			}
			plain = false
			break
		}
	}
	if plain {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return `"` + strings.ReplaceAll(s, `"`, `\"`) + `"`
}

// Atom is pred(args...). A zero-arity atom has empty Args.
type Atom struct {
	Pred string
	Args []Term
}

// A builds an atom.
func A(pred string, args ...Term) Atom { return Atom{Pred: pred, Args: args} }

func (a Atom) String() string {
	if len(a.Args) == 0 {
		return a.Pred
	}
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ",") + ")"
}

// Literal is an atom or its default negation.
type Literal struct {
	Atom Atom
	Neg  bool // true for "not atom"
}

// Pos returns a positive literal.
func Pos(a Atom) Literal { return Literal{Atom: a} }

// Not returns a default-negated literal.
func Not(a Atom) Literal { return Literal{Atom: a, Neg: true} }

func (l Literal) String() string {
	if l.Neg {
		return "not " + l.Atom.String()
	}
	return l.Atom.String()
}

// Rule is a normal rule Head :- Body, a constraint (nil Head), or a fact
// (empty Body).
type Rule struct {
	Head *Atom
	Body []Literal
}

// Fact builds a fact rule.
func Fact(a Atom) Rule { return Rule{Head: &a} }

// NewRule builds head :- body.
func NewRule(head Atom, body ...Literal) Rule { return Rule{Head: &head, Body: body} }

// Constraint builds :- body.
func Constraint(body ...Literal) Rule { return Rule{Body: body} }

func (r Rule) String() string {
	var b strings.Builder
	if r.Head != nil {
		b.WriteString(r.Head.String())
	}
	if len(r.Body) > 0 {
		b.WriteString(" :- ")
		for i, l := range r.Body {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(l.String())
		}
	}
	b.WriteByte('.')
	return b.String()
}

// Program is a finite set of normal rules.
type Program struct {
	Rules []Rule
}

// Add appends rules.
func (p *Program) Add(rs ...Rule) { p.Rules = append(p.Rules, rs...) }

// AddFact appends a fact.
func (p *Program) AddFact(a Atom) { p.Rules = append(p.Rules, Fact(a)) }

// String renders the program in clingo-compatible syntax, facts first.
func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// validPred reports whether a predicate name renders back into
// parseable syntax: a nonempty identifier that does not start with an
// uppercase letter or underscore (those parse as variables).
func validPred(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		if !isASPIdent(name[i]) {
			return false
		}
	}
	c := name[0]
	return c != '_' && !(c >= 'A' && c <= 'Z')
}

// Validate checks rule safety — every variable occurring anywhere in a
// rule must occur in a positive body literal — and that every predicate
// name is a plain identifier (programmatically built atoms could
// otherwise render into syntax that does not re-parse).
func (p *Program) Validate() error {
	for i, r := range p.Rules {
		posVars := make(map[string]bool)
		for _, l := range r.Body {
			if !l.Neg {
				for _, t := range l.Atom.Args {
					if t.Var {
						posVars[t.Name] = true
					}
				}
			}
		}
		check := func(a Atom, where string) error {
			if !validPred(a.Pred) {
				return fmt.Errorf("asp: rule %d (%s): predicate name %q is not a plain identifier", i, r, a.Pred)
			}
			for _, t := range a.Args {
				if t.Var && !posVars[t.Name] {
					return fmt.Errorf("asp: rule %d (%s): unsafe variable %s in %s", i, r, t.Name, where)
				}
			}
			return nil
		}
		if r.Head != nil {
			if err := check(*r.Head, "head"); err != nil {
				return err
			}
		}
		for _, l := range r.Body {
			where := "positive body"
			if l.Neg {
				where = "negative body"
			}
			if err := check(l.Atom, where); err != nil {
				return err
			}
		}
	}
	return nil
}
