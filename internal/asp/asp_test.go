package asp

import (
	"sort"
	"strings"
	"testing"
)

// models collects all stable models of a program as sorted atom-string
// sets.
func models(t *testing.T, p *Program) [][]string {
	t.Helper()
	gp, err := Ground(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := NewStableSolver(gp, nil, nil)
	var out [][]string
	ss.Enumerate(func(m []bool) bool {
		var atoms []string
		for _, a := range TrueAtoms(m) {
			atoms = append(atoms, gp.AtomString(a))
		}
		sort.Strings(atoms)
		out = append(out, atoms)
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i], " ") < strings.Join(out[j], " ")
	})
	return out
}

func asSet(ms [][]string) map[string]bool {
	s := make(map[string]bool)
	for _, m := range ms {
		s[strings.Join(m, " ")] = true
	}
	return s
}

func TestDefiniteProgram(t *testing.T) {
	// Reachability: unique stable model = least model.
	p := &Program{}
	p.AddFact(A("edge", K("a"), K("b")))
	p.AddFact(A("edge", K("b"), K("c")))
	p.Add(NewRule(A("reach", V("X"), V("Y")), Pos(A("edge", V("X"), V("Y")))))
	p.Add(NewRule(A("reach", V("X"), V("Z")),
		Pos(A("reach", V("X"), V("Y"))), Pos(A("edge", V("Y"), V("Z")))))
	ms := models(t, p)
	if len(ms) != 1 {
		t.Fatalf("definite program has %d stable models, want 1", len(ms))
	}
	want := []string{"edge(a,b)", "edge(b,c)", "reach(a,b)", "reach(a,c)", "reach(b,c)"}
	if strings.Join(ms[0], " ") != strings.Join(want, " ") {
		t.Errorf("model = %v, want %v", ms[0], want)
	}
}

func TestChoiceViaNegation(t *testing.T) {
	// a :- not b.  b :- not a.  → two stable models {a}, {b}.
	p := &Program{}
	p.Add(NewRule(A("a"), Not(A("b"))))
	p.Add(NewRule(A("b"), Not(A("a"))))
	ms := models(t, p)
	if len(ms) != 2 {
		t.Fatalf("got %d models, want 2: %v", len(ms), ms)
	}
	set := asSet(ms)
	if !set["a"] || !set["b"] {
		t.Errorf("models = %v, want {a} and {b}", ms)
	}
}

func TestPositiveLoopUnfounded(t *testing.T) {
	// a :- b.  b :- a.  → unique stable model {} (mutual support is
	// unfounded). The completion alone would also accept {a, b}: this
	// exercises the loop-formula machinery.
	p := &Program{}
	p.Add(NewRule(A("a"), Pos(A("b"))))
	p.Add(NewRule(A("b"), Pos(A("a"))))
	ms := models(t, p)
	if len(ms) != 1 || len(ms[0]) != 0 {
		t.Fatalf("got %v, want a single empty model", ms)
	}
}

func TestLoopWithExternalSupport(t *testing.T) {
	// a :- b.  b :- a.  b :- c, not d.  c.  → {a, b, c}.
	p := &Program{}
	p.Add(NewRule(A("a"), Pos(A("b"))))
	p.Add(NewRule(A("b"), Pos(A("a"))))
	p.Add(NewRule(A("b"), Pos(A("c")), Not(A("d"))))
	p.AddFact(A("c"))
	ms := models(t, p)
	if len(ms) != 1 {
		t.Fatalf("got %d models: %v", len(ms), ms)
	}
	if strings.Join(ms[0], " ") != "a b c" {
		t.Errorf("model = %v, want [a b c]", ms[0])
	}
}

func TestIncoherentOddLoop(t *testing.T) {
	// a :- not a.  → no stable model.
	p := &Program{}
	p.Add(NewRule(A("a"), Not(A("a"))))
	if ms := models(t, p); len(ms) != 0 {
		t.Errorf("odd loop has models: %v", ms)
	}
}

func TestConstraintPruning(t *testing.T) {
	p := &Program{}
	p.Add(NewRule(A("a"), Not(A("b"))))
	p.Add(NewRule(A("b"), Not(A("a"))))
	p.Add(Constraint(Pos(A("a"))))
	ms := models(t, p)
	if len(ms) != 1 || strings.Join(ms[0], " ") != "b" {
		t.Errorf("models = %v, want just {b}", ms)
	}
}

func TestConstraintWithNegation(t *testing.T) {
	// :- not a. forces a, which is only available via choice.
	p := &Program{}
	p.Add(NewRule(A("a"), Not(A("b"))))
	p.Add(NewRule(A("b"), Not(A("a"))))
	p.Add(Constraint(Not(A("a"))))
	ms := models(t, p)
	if len(ms) != 1 || strings.Join(ms[0], " ") != "a" {
		t.Errorf("models = %v, want just {a}", ms)
	}
}

func TestGroundingWithVariables(t *testing.T) {
	// p(X) :- q(X), not r(X). with r(b) a fact.
	p := &Program{}
	p.AddFact(A("q", K("a")))
	p.AddFact(A("q", K("b")))
	p.AddFact(A("r", K("b")))
	p.Add(NewRule(A("p", V("X")), Pos(A("q", V("X"))), Not(A("r", V("X")))))
	ms := models(t, p)
	if len(ms) != 1 {
		t.Fatalf("got %d models", len(ms))
	}
	m := strings.Join(ms[0], " ")
	if !strings.Contains(m, "p(a)") || strings.Contains(m, "p(b)") {
		t.Errorf("model = %v, want p(a) but not p(b)", ms[0])
	}
}

func TestUnsafeRuleRejected(t *testing.T) {
	p := &Program{}
	p.Add(NewRule(A("p", V("X")), Not(A("q", V("X")))))
	if _, err := Ground(p, nil, nil); err == nil {
		t.Error("unsafe rule grounded without error")
	}
	p2 := &Program{}
	p2.Add(NewRule(A("p", V("Y")), Pos(A("q", V("X")))))
	if _, err := Ground(p2, nil, nil); err == nil {
		t.Error("unsafe head variable accepted")
	}
}

func TestTransitiveClosureChoice(t *testing.T) {
	// Choose a subset of edges; closure must follow chosen edges only.
	p := &Program{}
	p.AddFact(A("cand", K("x"), K("y")))
	p.AddFact(A("cand", K("y"), K("z")))
	p.Add(NewRule(A("in", V("A"), V("B")), Pos(A("cand", V("A"), V("B"))), Not(A("out", V("A"), V("B")))))
	p.Add(NewRule(A("out", V("A"), V("B")), Pos(A("cand", V("A"), V("B"))), Not(A("in", V("A"), V("B")))))
	p.Add(NewRule(A("tc", V("A"), V("B")), Pos(A("in", V("A"), V("B")))))
	p.Add(NewRule(A("tc", V("A"), V("C")), Pos(A("tc", V("A"), V("B"))), Pos(A("tc", V("B"), V("C")))))
	ms := models(t, p)
	if len(ms) != 4 {
		t.Fatalf("got %d models, want 4 (subsets of 2 edges)", len(ms))
	}
	// Exactly one model contains tc(x,z): the one with both edges in.
	count := 0
	for _, m := range ms {
		joined := strings.Join(m, " ")
		if strings.Contains(joined, "tc(x,z)") {
			count++
			if !strings.Contains(joined, "in(x,y)") || !strings.Contains(joined, "in(y,z)") {
				t.Error("tc(x,z) without both edges chosen")
			}
		}
	}
	if count != 1 {
		t.Errorf("tc(x,z) in %d models, want 1", count)
	}
}

func TestBraveCautious(t *testing.T) {
	p := &Program{}
	p.Add(NewRule(A("a"), Not(A("b"))))
	p.Add(NewRule(A("b"), Not(A("a"))))
	p.AddFact(A("c"))
	gp, err := Ground(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := NewStableSolver(gp, nil, nil)
	brave, cautious, found, _ := ss.BraveCautious()
	if !found {
		t.Fatal("coherent program reported incoherent")
	}
	get := func(m []bool, s string) bool {
		for id := 0; id < gp.NumAtoms(); id++ {
			if gp.AtomString(id) == s {
				return m[id]
			}
		}
		t.Fatalf("atom %s not found", s)
		return false
	}
	if !get(brave, "a") || !get(brave, "b") || !get(brave, "c") {
		t.Error("brave consequences wrong")
	}
	if get(cautious, "a") || get(cautious, "b") || !get(cautious, "c") {
		t.Error("cautious consequences wrong")
	}
}

func TestBraveCautiousIncoherent(t *testing.T) {
	p := &Program{}
	p.Add(NewRule(A("a"), Not(A("a"))))
	gp, err := Ground(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := NewStableSolver(gp, nil, nil)
	if _, _, found, _ := ss.BraveCautious(); found {
		t.Error("incoherent program reported stable models")
	}
}

func TestMaximalProjections(t *testing.T) {
	// Three selectable atoms with s1,s2 mutually exclusive:
	// maximal projections are {s1,s3} and {s2,s3}.
	p := &Program{}
	for _, n := range []string{"c1", "c2", "c3"} {
		p.AddFact(A("cand", K(n)))
	}
	p.Add(NewRule(A("sel", V("X")), Pos(A("cand", V("X"))), Not(A("nsel", V("X")))))
	p.Add(NewRule(A("nsel", V("X")), Pos(A("cand", V("X"))), Not(A("sel", V("X")))))
	p.Add(Constraint(Pos(A("sel", K("c1"))), Pos(A("sel", K("c2")))))
	gp, err := Ground(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := NewStableSolver(gp, nil, nil)
	proj := gp.AtomsOf("sel")
	if len(proj) != 3 {
		t.Fatalf("sel atoms = %d, want 3", len(proj))
	}
	var results []string
	ss.MaximalProjections(proj, func(m []bool) bool {
		var sel []string
		for _, a := range proj {
			if m[a] {
				sel = append(sel, gp.AtomString(a))
			}
		}
		sort.Strings(sel)
		results = append(results, strings.Join(sel, " "))
		return true
	})
	sort.Strings(results)
	if len(results) != 2 {
		t.Fatalf("got %d maximal projections: %v", len(results), results)
	}
	want := []string{`sel(c1) sel(c3)`, `sel(c2) sel(c3)`}
	for i := range want {
		if results[i] != want[i] {
			t.Errorf("maximal projections = %v, want %v", results, want)
			break
		}
	}
}

func TestMaximalProjectionsFullSet(t *testing.T) {
	// No constraints: the unique maximal projection selects everything.
	p := &Program{}
	p.AddFact(A("cand", K("c1")))
	p.AddFact(A("cand", K("c2")))
	p.Add(NewRule(A("sel", V("X")), Pos(A("cand", V("X"))), Not(A("nsel", V("X")))))
	p.Add(NewRule(A("nsel", V("X")), Pos(A("cand", V("X"))), Not(A("sel", V("X")))))
	gp, err := Ground(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := NewStableSolver(gp, nil, nil)
	count := 0
	ss.MaximalProjections(gp.AtomsOf("sel"), func(m []bool) bool {
		count++
		for _, a := range gp.AtomsOf("sel") {
			if !m[a] {
				t.Error("maximal projection misses a selectable atom")
			}
		}
		return true
	})
	if count != 1 {
		t.Errorf("got %d maximal projections, want 1", count)
	}
}

func TestProgramString(t *testing.T) {
	p := &Program{}
	p.AddFact(A("q", K("a b"))) // constant requiring quotes
	p.Add(NewRule(A("p", V("X")), Pos(A("q", V("X"))), Not(A("r", V("X")))))
	p.Add(Constraint(Pos(A("p", K("a b")))))
	out := p.String()
	for _, want := range []string{`q("a b").`, "p(X) :- q(X), not r(X).", `:- p("a b").`} {
		if !strings.Contains(out, want) {
			t.Errorf("program text missing %q:\n%s", want, out)
		}
	}
}

func TestGroundRuleDedup(t *testing.T) {
	// The same ground instance reachable via two derivations must be
	// recorded once.
	p := &Program{}
	p.AddFact(A("q", K("a")))
	p.AddFact(A("r", K("a")))
	p.Add(NewRule(A("p", V("X")), Pos(A("q", V("X")))))
	p.Add(NewRule(A("p", V("X")), Pos(A("r", V("X")))))
	p.Add(NewRule(A("s", V("X")), Pos(A("p", V("X"))), Pos(A("q", V("X")))))
	gp, err := Ground(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, r := range gp.Rules {
		if r.Head >= 0 && gp.Atom(r.Head).Pred == "s" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("s-rule instantiated %d times, want 1", count)
	}
}

func TestGroundConstraintOnlyNegative(t *testing.T) {
	// :- not a. with a underivable → incoherent.
	p := &Program{}
	p.AddFact(A("b"))
	p.Add(Constraint(Not(A("a"))))
	if ms := models(t, p); len(ms) != 0 {
		t.Errorf("unsatisfiable negative constraint ignored: %v", ms)
	}
}
