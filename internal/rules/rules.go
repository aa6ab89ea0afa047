// Package rules defines LACE ER specifications (Definition 1 of the
// paper): finite sim-safe sets of hard and soft rules together with
// denial constraints. It provides validation (including the sim-safety
// check of Section 3), classification into the restricted fragments
// studied in Section 4.4, the hard-to-soft transformation of
// Proposition 1, and a parser for a textual specification language.
package rules

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/sim"
)

// Kind distinguishes hard rules (⇒, must merge), soft rules (⤳, may
// merge), and negative soft rules (⤳ NEQ, evidence against a merge —
// the quantitative extension sketched in Section 7 of the paper).
type Kind int

// Rule kinds.
const (
	Hard Kind = iota
	Soft
	// NegSoft rules do not derive or forbid merges; they contribute
	// negative evidence to solution scoring (Engine.ScoreSolution).
	NegSoft
)

func (k Kind) String() string {
	switch k {
	case Hard:
		return "hard"
	case NegSoft:
		return "negsoft"
	default:
		return "soft"
	}
}

// Rule is a LACE rule q(x,y) → EQ(x,y) (or, for NegSoft, ⤳ NEQ(x,y)).
// Body is a CQ whose Head lists exactly the two distinguished variables
// x and y; the remaining body variables are existentially quantified.
type Rule struct {
	Kind Kind
	Name string // optional label used in output and justifications
	Body cq.CQ  // Head = [x, y]
	// Weight is the rule's evidence weight for solution scoring; zero
	// means the default weight 1. Only soft and negsoft rules are
	// scored; the solution semantics itself is weight-independent.
	Weight float64
}

// EffectiveWeight returns the scoring weight (1 when unset).
func (r *Rule) EffectiveWeight() float64 {
	if r.Weight == 0 {
		return 1
	}
	return r.Weight
}

// X returns the first distinguished variable name.
func (r *Rule) X() string { return r.Body.Head[0] }

// Y returns the second distinguished variable name.
func (r *Rule) Y() string { return r.Body.Head[1] }

// String renders the rule in the spec syntax.
func (r *Rule) String() string {
	arrow, head, kw := "=>", "EQ", "hard"
	switch r.Kind {
	case Soft:
		arrow, kw = "~>", "soft"
	case NegSoft:
		arrow, head, kw = "~>", "NEQ", "soft"
	}
	label := ""
	if r.Name != "" {
		label = r.Name + ": "
	}
	return fmt.Sprintf("%s %s%s %s %s(%s,%s).", kw, label, r.Body.String(), arrow, head, r.X(), r.Y())
}

// Denial is a denial constraint ∀x̄.¬(φ(x̄)) where φ is a conjunction of
// relational atoms and inequality atoms.
type Denial struct {
	Name  string
	Atoms []cq.Atom // KindRel and KindNeq only
}

// HasNeq reports whether the denial uses any inequality atom.
func (d *Denial) HasNeq() bool {
	for _, a := range d.Atoms {
		if a.Kind == cq.KindNeq {
			return true
		}
	}
	return false
}

// String renders the denial in the spec syntax.
func (d *Denial) String() string {
	parts := make([]string, len(d.Atoms))
	for i, a := range d.Atoms {
		parts[i] = a.String()
	}
	label := ""
	if d.Name != "" {
		label = d.Name + ": "
	}
	return "denial " + label + strings.Join(parts, ", ") + "."
}

// FD builds the denial constraint capturing the functional dependency
// rel: lhs -> rhs, i.e. ∀...¬(R(..) ∧ R(..) ∧ z ≠ z′) with the lhs
// attributes shared and the rhs attribute split into z, z′.
func FD(name string, rel *db.Relation, lhs []string, rhs string) (*Denial, error) {
	lhsSet := make(map[string]bool, len(lhs))
	for _, a := range lhs {
		if rel.AttrIndex(a) < 0 {
			return nil, fmt.Errorf("rules: FD lhs attribute %q not in %s", a, rel)
		}
		lhsSet[a] = true
	}
	ri := rel.AttrIndex(rhs)
	if ri < 0 {
		return nil, fmt.Errorf("rules: FD rhs attribute %q not in %s", rhs, rel)
	}
	if lhsSet[rhs] {
		return nil, fmt.Errorf("rules: FD rhs attribute %q also on lhs", rhs)
	}
	mk := func(copyTag string) []cq.Term {
		args := make([]cq.Term, rel.Arity())
		for i, attr := range rel.Attrs {
			switch {
			case lhsSet[attr]:
				args[i] = cq.Var("v_" + attr)
			case i == ri:
				args[i] = cq.Var("v_" + attr + copyTag)
			default:
				args[i] = cq.Var("v_" + attr + "_w" + copyTag)
			}
		}
		return args
	}
	a1, a2 := mk("1"), mk("2")
	return &Denial{
		Name: name,
		Atoms: []cq.Atom{
			{Kind: cq.KindRel, Pred: rel.Name, Args: a1},
			{Kind: cq.KindRel, Pred: rel.Name, Args: a2},
			cq.Neq(a1[ri], a2[ri]),
		},
	}, nil
}

// Spec is an ER specification Σ = ⟨Γ, Δ⟩ over a schema.
type Spec struct {
	Rules   []*Rule
	Denials []*Denial
}

// HardRules returns the hard rules in order.
func (s *Spec) HardRules() []*Rule { return s.byKind(Hard) }

// SoftRules returns the soft rules in order (NegSoft excluded).
func (s *Spec) SoftRules() []*Rule { return s.byKind(Soft) }

// NegSoftRules returns the negative-evidence rules in order.
func (s *Spec) NegSoftRules() []*Rule { return s.byKind(NegSoft) }

// MergeRules returns the rules that can derive merges (hard and soft,
// in order) — the Γ of Definition 2; NegSoft rules never derive pairs.
func (s *Spec) MergeRules() []*Rule {
	var out []*Rule
	for _, r := range s.Rules {
		if r.Kind != NegSoft {
			out = append(out, r)
		}
	}
	return out
}

func (s *Spec) byKind(k Kind) []*Rule {
	var out []*Rule
	for _, r := range s.Rules {
		if r.Kind == k {
			out = append(out, r)
		}
	}
	return out
}

// IsRestricted reports whether the specification is restricted in the
// sense of Section 4.4: no denial constraint uses an inequality atom.
// For restricted specifications Existence and MaxRec drop to P and
// CertMerge/CertAnswer to coNP (Theorem 8).
func (s *Spec) IsRestricted() bool {
	for _, d := range s.Denials {
		if d.HasNeq() {
			return false
		}
	}
	return true
}

// IsHardOnly reports Γs = ∅ (Theorem 9 tractable class).
func (s *Spec) IsHardOnly() bool { return len(s.SoftRules()) == 0 }

// IsDenialFree reports Δ = ∅ (Theorem 9 tractable class).
func (s *Spec) IsDenialFree() bool { return len(s.Denials) == 0 }

// FDsOnly reports whether every denial constraint has the shape of a
// functional dependency: exactly two atoms over the same relation, one
// inequality between two position-aligned variables, the two atoms
// sharing variables at a set of (lhs) positions and nowhere else.
func (s *Spec) FDsOnly() bool {
	for _, d := range s.Denials {
		if !isFDShape(d) {
			return false
		}
	}
	return true
}

func isFDShape(d *Denial) bool {
	var rels []cq.Atom
	var neqs []cq.Atom
	for _, a := range d.Atoms {
		switch a.Kind {
		case cq.KindRel:
			rels = append(rels, a)
		case cq.KindNeq:
			neqs = append(neqs, a)
		default:
			return false
		}
	}
	if len(rels) != 2 || len(neqs) != 1 || rels[0].Pred != rels[1].Pred {
		return false
	}
	n1, n2 := neqs[0].Args[0], neqs[0].Args[1]
	if !n1.IsVar || !n2.IsVar {
		return false
	}
	rhsPos := -1
	for i := range rels[0].Args {
		t1, t2 := rels[0].Args[i], rels[1].Args[i]
		if !t1.IsVar || !t2.IsVar {
			return false
		}
		if t1.Name == n1.Name && t2.Name == n2.Name ||
			t1.Name == n2.Name && t2.Name == n1.Name {
			if rhsPos >= 0 {
				return false
			}
			rhsPos = i
		}
	}
	return rhsPos >= 0
}

// Validate checks the specification against a schema and similarity
// registry: every rule body is a valid safe CQ with a two-variable head,
// rule bodies contain no inequality atoms, denials contain only
// relational and inequality atoms, and the ruleset is sim-safe.
func (s *Spec) Validate(schema *db.Schema, sims *sim.Registry) error {
	for _, r := range s.Rules {
		if len(r.Body.Head) != 2 {
			return fmt.Errorf("rules: %s rule %s must have head EQ(x,y)", r.Kind, r.Name)
		}
		// Note: EQ(x,x) heads are permitted; Section 6 uses
		// V(x) ⤳ EQ(x,x) in the Σsg^dgbc specification.
		for _, a := range r.Body.Atoms {
			if a.Kind == cq.KindNeq {
				return fmt.Errorf("rules: rule %s contains an inequality atom; those are allowed in denial constraints and queries, not in rule bodies", r.Name)
			}
		}
		if err := r.Body.Validate(schema, sims); err != nil {
			return fmt.Errorf("rules: %s rule %s: %w", r.Kind, r.Name, err)
		}
	}
	for _, d := range s.Denials {
		// Denial constraints are conjunctions of relational and
		// inequality atoms; similarity atoms are additionally allowed so
		// that the Proposition 1 transformation (rule body ∧ x≠y) stays
		// within the language.
		if err := cq.Validate(d.Atoms, nil, schema, sims); err != nil {
			return fmt.Errorf("rules: denial %s: %w", d.Name, err)
		}
	}
	return s.SimSafe(schema)
}

// attrRef identifies an attribute position of a relation.
type attrRef struct {
	rel string
	pos int
}

// SimSafe checks the sim-safety condition of Section 3: no attribute may
// be both a merge attribute (holding a distinguished variable of some
// rule) and a sim attribute (holding a variable that also occurs in a
// similarity atom of the same rule).
func (s *Spec) SimSafe(schema *db.Schema) error {
	merge := make(map[attrRef]string) // attr -> rule name (for the error)
	simAttr := make(map[attrRef]string)
	for _, r := range s.Rules {
		simVars := make(map[string]bool)
		for _, a := range r.Body.Atoms {
			if a.Kind == cq.KindSim {
				for _, t := range a.Args {
					if t.IsVar {
						simVars[t.Name] = true
					}
				}
			}
		}
		for _, a := range r.Body.Atoms {
			if a.Kind != cq.KindRel {
				continue
			}
			for i, t := range a.Args {
				if !t.IsVar {
					continue
				}
				ref := attrRef{rel: a.Pred, pos: i}
				if t.Name == r.X() || t.Name == r.Y() {
					merge[ref] = r.Name
				}
				if simVars[t.Name] {
					simAttr[ref] = r.Name
				}
			}
		}
	}
	for ref := range merge {
		if _, bad := simAttr[ref]; bad {
			rel, _ := schema.Relation(ref.rel)
			attr := fmt.Sprintf("%s[%d]", ref.rel, ref.pos)
			if rel != nil {
				attr = ref.rel + "." + rel.Attrs[ref.pos]
			}
			return fmt.Errorf("rules: ruleset is not sim-safe: attribute %s is both a merge attribute (rule %s) and a sim attribute (rule %s)",
				attr, merge[ref], simAttr[ref])
		}
	}
	return nil
}

// MergeAttributes returns the merge attributes of the ruleset as
// "Rel.attr" strings, sorted.
func (s *Spec) MergeAttributes(schema *db.Schema) []string {
	return s.collectAttrs(schema, true)
}

// SimAttributes returns the sim attributes of the ruleset as "Rel.attr"
// strings, sorted.
func (s *Spec) SimAttributes(schema *db.Schema) []string {
	return s.collectAttrs(schema, false)
}

func (s *Spec) collectAttrs(schema *db.Schema, wantMerge bool) []string {
	set := make(map[string]bool)
	for _, r := range s.Rules {
		simVars := make(map[string]bool)
		for _, a := range r.Body.Atoms {
			if a.Kind == cq.KindSim {
				for _, t := range a.Args {
					if t.IsVar {
						simVars[t.Name] = true
					}
				}
			}
		}
		for _, a := range r.Body.Atoms {
			if a.Kind != cq.KindRel {
				continue
			}
			rel, ok := schema.Relation(a.Pred)
			if !ok {
				continue
			}
			for i, t := range a.Args {
				if !t.IsVar {
					continue
				}
				isMergeVar := t.Name == r.X() || t.Name == r.Y()
				if wantMerge && isMergeVar || !wantMerge && simVars[t.Name] {
					set[a.Pred+"."+rel.Attrs[i]] = true
				}
			}
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Prop1Transform returns the specification Σ′ of Proposition 1: every
// hard rule ρ = q(x,y) ⇒ EQ(x,y) is replaced by the soft rule σρ =
// q(x,y) ⤳ EQ(x,y) plus the denial constraint δρ = ∀x,y,z̄.¬(φ ∧ x≠y).
// Σ and Σ′ have identical solution sets on every database.
func (s *Spec) Prop1Transform() *Spec {
	out := &Spec{Denials: append([]*Denial(nil), s.Denials...)}
	for _, r := range s.Rules {
		if r.Kind != Hard {
			out.Rules = append(out.Rules, r)
			continue
		}
		soft := &Rule{Kind: Soft, Name: r.Name + "_soft", Body: r.Body}
		out.Rules = append(out.Rules, soft)
		atoms := append([]cq.Atom(nil), r.Body.Atoms...)
		atoms = append(atoms, cq.Neq(cq.Var(r.X()), cq.Var(r.Y())))
		out.Denials = append(out.Denials, &Denial{Name: r.Name + "_denial", Atoms: atoms})
	}
	return out
}

// String renders the full specification in the spec syntax.
func (s *Spec) String() string {
	var b strings.Builder
	for _, r := range s.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	for _, d := range s.Denials {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}
