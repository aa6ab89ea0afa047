package rules

import (
	"fmt"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/lex"
	"repro/internal/sim"
)

// parser wraps the lexer with a one-token pushback used by the optional
// label lookahead.
type parser struct {
	lx       *lex.Lexer
	pushed   *lex.Token
	schema   *db.Schema
	interner *db.Interner
	sims     *sim.Registry
}

func (p *parser) next() (lex.Token, error) {
	if p.pushed != nil {
		t := *p.pushed
		p.pushed = nil
		return t, nil
	}
	return p.lx.Next()
}

func (p *parser) peek() (lex.Token, error) {
	if p.pushed != nil {
		return *p.pushed, nil
	}
	return p.lx.Peek()
}

func (p *parser) push(t lex.Token) { p.pushed = &t }

func (p *parser) expect(kind lex.Kind, what string) (lex.Token, error) {
	t, err := p.next()
	if err != nil {
		return lex.Token{}, err
	}
	if t.Kind != kind {
		return lex.Token{}, p.lx.Errf(t.Line, "expected %s, got %q", what, t.Text)
	}
	return t, nil
}

// ParseSpec parses the textual specification language:
//
//	# Figure 1 of the paper
//	hard rho2: Conference(x,n,ye), Conference(y,n2,ye),
//	           Chair(x,a), Chair(y,a), approx(n,n2) => EQ(x,y).
//	soft sigma2: Author(x,e,u), Author(y,e2,u), e ~ e2 ~> EQ(x,y).
//	denial d1: Wrote(x,y,z), Wrote(x,y2,z), y != y2.
//
// Identifiers in rule bodies are variables; constants must be written as
// quoted strings and are interned in the given interner. An atom
// pred(...) is a relational atom when pred is declared in the schema and
// a similarity atom when pred is registered in sims; the infix form
// "t1 ~ t2" uses the similarity predicate named "~". Labels are
// optional. The parsed specification is validated (including sim-safety)
// before being returned.
func ParseSpec(src string, schema *db.Schema, interner *db.Interner, sims *sim.Registry) (*Spec, error) {
	if interner == nil {
		interner = db.NewInterner()
	}
	p := &parser{
		lx:       lex.New(src, "hard", "soft", "denial"),
		schema:   schema,
		interner: interner,
		sims:     sims,
	}
	spec := &Spec{}
	for {
		t, err := p.next()
		if err != nil {
			return nil, err
		}
		if t.Kind == lex.EOF {
			break
		}
		if t.Kind != lex.Keyword {
			return nil, p.lx.Errf(t.Line, "expected 'hard', 'soft' or 'denial', got %q", t.Text)
		}
		label, err := p.parseOptionalLabel()
		if err != nil {
			return nil, err
		}
		switch t.Text {
		case "denial":
			atoms, end, err := p.parseAtoms()
			if err != nil {
				return nil, err
			}
			if end.Kind != lex.Dot {
				return nil, p.lx.Errf(end.Line, "expected '.' after denial body, got %q", end.Text)
			}
			if label == "" {
				label = fmt.Sprintf("delta%d", len(spec.Denials)+1)
			}
			spec.Denials = append(spec.Denials, &Denial{Name: label, Atoms: atoms})
		default:
			kind, wantArrow, arrowText := Hard, lex.Arrow, "=>"
			if t.Text == "soft" {
				kind, wantArrow, arrowText = Soft, lex.Squig, "~>"
			}
			atoms, end, err := p.parseAtoms()
			if err != nil {
				return nil, err
			}
			if end.Kind != wantArrow {
				return nil, p.lx.Errf(end.Line, "%s rule must use %q before its EQ head, got %q", t.Text, arrowText, end.Text)
			}
			headTok, err := p.expect(lex.Ident, "EQ or NEQ")
			if err != nil {
				return nil, err
			}
			switch headTok.Text {
			case "EQ":
			case "NEQ":
				// Negative-evidence soft rule (Section 7 quantitative
				// extension): contributes to scoring only.
				if kind != Soft {
					return nil, p.lx.Errf(headTok.Line, "NEQ heads are only allowed on soft rules")
				}
				kind = NegSoft
			default:
				return nil, p.lx.Errf(headTok.Line, "rule head must be EQ or NEQ, got %q", headTok.Text)
			}
			hv, err := db.ParseNameList(p.lx)
			if err != nil {
				return nil, err
			}
			if len(hv) != 2 {
				return nil, p.lx.Errf(end.Line, "EQ head must have exactly two variables, got %d", len(hv))
			}
			if _, err := p.expect(lex.Dot, "'.'"); err != nil {
				return nil, err
			}
			if label == "" {
				label = fmt.Sprintf("%s%d", t.Text, len(spec.Rules)+1)
			}
			spec.Rules = append(spec.Rules, &Rule{
				Kind: kind,
				Name: label,
				Body: cq.CQ{Head: hv, Atoms: atoms},
			})
		}
	}
	if err := spec.Validate(schema, sims); err != nil {
		return nil, err
	}
	return spec, nil
}

// parseOptionalLabel consumes "name :" if present; otherwise it leaves
// the input untouched (using one-token pushback).
func (p *parser) parseOptionalLabel() (string, error) {
	t, err := p.peek()
	if err != nil {
		return "", err
	}
	if t.Kind != lex.Ident {
		return "", nil
	}
	name, _ := p.next()
	t2, err := p.peek()
	if err != nil {
		return "", err
	}
	if t2.Kind == lex.Colon {
		p.next() // consume ':'
		return name.Text, nil
	}
	p.push(name)
	return "", nil
}

// parseAtoms parses a comma-separated atom list and returns the
// terminating token (the dot or a rule arrow).
func (p *parser) parseAtoms() ([]cq.Atom, lex.Token, error) {
	var atoms []cq.Atom
	for {
		atom, err := p.parseAtom()
		if err != nil {
			return nil, lex.Token{}, err
		}
		atoms = append(atoms, atom)
		t, err := p.next()
		if err != nil {
			return nil, lex.Token{}, err
		}
		if t.Kind == lex.Comma {
			continue
		}
		return atoms, t, nil
	}
}

func (p *parser) parseAtom() (cq.Atom, error) {
	first, err := p.next()
	if err != nil {
		return cq.Atom{}, err
	}
	if first.Kind != lex.Ident && first.Kind != lex.String {
		return cq.Atom{}, p.lx.Errf(first.Line, "expected atom, got %q", first.Text)
	}
	nxt, err := p.peek()
	if err != nil {
		return cq.Atom{}, err
	}
	// Infix forms: t1 ~ t2 and t1 != t2.
	if first.Kind == lex.String || nxt.Kind == lex.Tilde || nxt.Kind == lex.Neq {
		left, err := p.termFromToken(first)
		if err != nil {
			return cq.Atom{}, err
		}
		op, err := p.next()
		if err != nil {
			return cq.Atom{}, err
		}
		if op.Kind != lex.Tilde && op.Kind != lex.Neq {
			return cq.Atom{}, p.lx.Errf(op.Line, "expected '~' or '!=', got %q", op.Text)
		}
		rt, err := p.next()
		if err != nil {
			return cq.Atom{}, err
		}
		right, err := p.termFromToken(rt)
		if err != nil {
			return cq.Atom{}, err
		}
		if op.Kind == lex.Neq {
			return cq.Neq(left, right), nil
		}
		if p.sims == nil {
			return cq.Atom{}, p.lx.Errf(op.Line, "similarity atom used but no registry provided")
		}
		if _, ok := p.sims.Lookup("~"); !ok {
			return cq.Atom{}, p.lx.Errf(op.Line, "infix '~' requires a similarity predicate named %q in the registry", "~")
		}
		return cq.Sim("~", left, right), nil
	}
	// Predicate form pred(t1,...,tk).
	if _, err := p.expect(lex.LParen, "'('"); err != nil {
		return cq.Atom{}, err
	}
	var args []cq.Term
	for {
		t, err := p.next()
		if err != nil {
			return cq.Atom{}, err
		}
		term, err := p.termFromToken(t)
		if err != nil {
			return cq.Atom{}, err
		}
		args = append(args, term)
		t, err = p.next()
		if err != nil {
			return cq.Atom{}, err
		}
		if t.Kind == lex.RParen {
			break
		}
		if t.Kind != lex.Comma {
			return cq.Atom{}, p.lx.Errf(t.Line, "expected ',' or ')', got %q", t.Text)
		}
	}
	if _, ok := p.schema.Relation(first.Text); ok {
		return cq.Atom{Kind: cq.KindRel, Pred: first.Text, Args: args}, nil
	}
	if p.sims != nil {
		if _, ok := p.sims.Lookup(first.Text); ok {
			if len(args) != 2 {
				return cq.Atom{}, p.lx.Errf(first.Line, "similarity predicate %q must be binary", first.Text)
			}
			return cq.Atom{Kind: cq.KindSim, Pred: first.Text, Args: args}, nil
		}
	}
	return cq.Atom{}, p.lx.Errf(first.Line, "unknown predicate %q (neither a relation nor a similarity predicate)", first.Text)
}

func (p *parser) termFromToken(t lex.Token) (cq.Term, error) {
	switch t.Kind {
	case lex.Ident:
		return cq.Var(t.Text), nil
	case lex.String:
		if _, ok := p.interner.Lookup(t.Text); !ok && p.interner.Frozen() {
			return cq.Term{}, p.lx.Errf(t.Line, "constant %q is not in the frozen database; parse against a Clone of its interner", t.Text)
		}
		return cq.C(p.interner.Intern(t.Text)), nil
	default:
		return cq.Term{}, p.lx.Errf(t.Line, "expected a variable or quoted constant, got %q", t.Text)
	}
}

// ParseQuery parses a conjunctive query of the form
//
//	(x, y) : Body
//
// where Body uses the same atom syntax as rule bodies; the head "(...)"
// part is optional (omitting it yields a Boolean query).
func ParseQuery(src string, schema *db.Schema, interner *db.Interner, sims *sim.Registry) (*cq.CQ, error) {
	if interner == nil {
		interner = db.NewInterner()
	}
	p := &parser{lx: lex.New(src), schema: schema, interner: interner, sims: sims}
	var head []string
	t, err := p.peek()
	if err != nil {
		return nil, err
	}
	if t.Kind == lex.LParen {
		head, err = db.ParseNameList(p.lx)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lex.Colon, "':'"); err != nil {
			return nil, err
		}
	}
	atoms, end, err := p.parseAtoms()
	if err != nil {
		return nil, err
	}
	if end.Kind != lex.EOF && end.Kind != lex.Dot {
		return nil, p.lx.Errf(end.Line, "unexpected %q after query body", end.Text)
	}
	q := &cq.CQ{Head: head, Atoms: atoms}
	if err := q.Validate(schema, sims); err != nil {
		return nil, err
	}
	return q, nil
}
