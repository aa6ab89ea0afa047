package asp

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/limits"
)

// Regression tests for bugs surfaced by the fuzz harnesses
// (fuzz_test.go). Each test failed — by panic or wrong output — before
// the corresponding fix; the minimized inputs are also committed to the
// seed corpora under testdata/fuzz/.

// TestGroundArityMixRegression: `p. q :- p(X).` uses p at arity 0 and
// arity 1. Keying grounder relations by predicate name alone mixed the
// two extensions and the join index read past the end of the 0-ary
// tuple (index out of range panic in matchBody). Relations are now
// keyed by name and arity, as in clingo; p/1 is empty so q must be
// underivable.
func TestGroundArityMixRegression(t *testing.T) {
	p, err := Parse("p. q :- p(X).")
	if err != nil {
		t.Fatal(err)
	}
	gp, err := Ground(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := NewStableSolver(gp, nil, nil)
	m, ok, _ := ss.Next()
	if !ok {
		t.Fatal("no stable model")
	}
	var atoms []string
	for _, id := range TrueAtoms(m) {
		atoms = append(atoms, gp.AtomString(id))
	}
	if len(atoms) != 1 || atoms[0] != "p" {
		t.Fatalf("stable model = %v, want exactly [p]", atoms)
	}
}

// TestRoundTripBackslashConst: a constant that is a lone backslash
// rendered as "\" — the escape swallowed the closing quote and the
// output no longer parsed. Backslashes must be escaped before quotes.
func TestRoundTripBackslashConst(t *testing.T) {
	p, err := Parse(`a("\\").`)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Rules[0].Head.Args[0].Name; got != `\` {
		t.Fatalf("parsed constant %q, want a lone backslash", got)
	}
	text := p.String()
	p2, err := Parse(text)
	if err != nil {
		t.Fatalf("rendered %q does not re-parse: %v", text, err)
	}
	if p2.String() != text {
		t.Fatalf("round trip not stable: %q -> %q", text, p2.String())
	}
}

// TestQuotedPredicateRejected: a quoted string in predicate position
// used to parse into an atom that rendered as unparseable syntax.
// Both the parser and Validate (for programmatically built programs)
// must reject it.
func TestQuotedPredicateRejected(t *testing.T) {
	if _, err := Parse(`"foo bar"(x,y) :- e(x,y).`); err == nil {
		t.Fatal("quoted predicate name parsed")
	}
	prog := &Program{}
	prog.Add(NewRule(A("foo bar", V("X")), Pos(A("e", V("X")))))
	if err := prog.Validate(); err == nil {
		t.Fatal("Validate accepted a non-identifier predicate name")
	}
	prog2 := &Program{}
	prog2.Add(NewRule(A("ok", V("X")), Pos(A("Bad", V("X")))))
	if err := prog2.Validate(); err == nil {
		t.Fatal("Validate accepted an uppercase predicate name in the body")
	}
}

// TestParseErrorPositions: parse errors carry the line and column of
// the offending token.
func TestParseErrorPositions(t *testing.T) {
	cases := []struct {
		src  string
		want string // prefix of the error message
	}{
		{"p(", "asp: line 1:3"},
		{"p :- q", "asp: line 1:7"},
		{"p.\nq(X) :- r(X)\ns.", "asp: line 3:1"}, // missing '.' detected at 's'
		{"p(a,\n\"unterminated", "asp: line 2:14"},
		{`"quoted"(x).`, "asp: line 1:1"},
		{"p(X) :- q(X), .", "asp: line 1:15"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c.src)
			continue
		}
		if !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("Parse(%q) error = %q, want prefix %q", c.src, err, c.want)
		}
	}
}

// TestSolverDeterministicEnumeration: two fresh solvers over the same
// program enumerate stable models in the same order — the documented
// contract of Enumerate (DPLL picks the lowest unassigned variable, so
// there is no hidden randomness).
func TestSolverDeterministicEnumeration(t *testing.T) {
	const src = `node(a). node(b). node(c).
in(X) :- node(X), not out(X).
out(X) :- node(X), not in(X).
:- in(a), in(b), in(c).`
	runOnce := func() []string {
		gp, err := Ground(MustParse(src), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var order []string
		NewStableSolver(gp, nil, nil).Enumerate(func(m []bool) bool {
			var atoms []string
			for _, id := range TrueAtoms(m) {
				atoms = append(atoms, gp.AtomString(id))
			}
			order = append(order, strings.Join(atoms, " "))
			return true
		})
		return order
	}
	first := runOnce()
	if len(first) != 7 { // 2^3 subsets minus the excluded full set
		t.Fatalf("enumerated %d models, want 7", len(first))
	}
	for trial := 0; trial < 5; trial++ {
		got := runOnce()
		if strings.Join(got, "|") != strings.Join(first, "|") {
			t.Fatalf("enumeration order changed between runs:\nfirst: %v\ntrial %d: %v", first, trial, got)
		}
	}
}

// TestGroundBudgetTypedError: exceeding MaxGroundRules surfaces a
// *limits.BudgetError naming the resource, matching the sentinel.
func TestGroundBudgetTypedError(t *testing.T) {
	p := MustParse("e(a,b). e(b,c). e(c,d). r(X,Y) :- e(X,Y). r(X,Z) :- r(X,Y), e(Y,Z).")
	b := limits.NewBudget(nil, limits.Limits{MaxGroundRules: 3})
	_, err := Ground(p, b, nil)
	if !errors.Is(err, limits.ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	var be *limits.BudgetError
	if !errors.As(err, &be) || be.Resource != "ground rules" {
		t.Fatalf("typed error wrong: %#v", err)
	}
}

// TestClauseBudgetCoversCompletion: MaxClauses counts the completion
// clauses NewStableSolver adds, not only the loop formulas and blocking
// clauses added while solving. A budget one clause short of the
// completion yields no model and a clause-budget error.
func TestClauseBudgetCoversCompletion(t *testing.T) {
	gp, err := Ground(MustParse("a :- not b. b :- not a. c :- a. d :- b."), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := NewStableSolver(gp, nil, nil).SAT().NumClauses()
	if k < 2 {
		t.Fatalf("completion has %d clauses, want at least 2", k)
	}
	b := limits.NewBudget(nil, limits.Limits{MaxClauses: k - 1})
	models := 0
	err = NewStableSolver(gp, b, nil).Enumerate(func([]bool) bool { models++; return true })
	if models != 0 {
		t.Errorf("enumerated %d models under a budget below the %d-clause completion", models, k)
	}
	if !errors.Is(err, limits.ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	var be *limits.BudgetError
	if !errors.As(err, &be) || be.Resource != "clauses" {
		t.Fatalf("typed error wrong: %#v", err)
	}
}
