package encode

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/fixtures"
	"repro/internal/rules"
	"repro/internal/sim"
)

// collectNative returns the native solution set keyed canonically.
func collectNative(t *testing.T, e *core.Engine) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	if err := e.SolutionsCtx(context.Background(), func(E *eqrel.Partition) bool {
		out[E.Key()] = true
		return false
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// collectASP returns the stable-model eq-projection set keyed
// canonically.
func collectASP(t *testing.T, s *Solver) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	s.Solutions(func(E *eqrel.Partition) bool {
		out[E.Key()] = true
		return true
	})
	return out
}

// TestTheorem10Figure1: the stable models of Π_Sol projected to eq are
// exactly the solutions of the running example.
func TestTheorem10Figure1(t *testing.T) {
	f := fixtures.New()
	e, err := core.New(f.DB, f.Spec, f.Sims, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(New(f.DB, f.Spec, f.Sims), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	native := collectNative(t, e)
	aspSols := collectASP(t, s)
	if len(native) != 6 {
		t.Fatalf("native solutions = %d, want 6", len(native))
	}
	if len(aspSols) != len(native) {
		t.Fatalf("ASP solutions = %d, native = %d", len(aspSols), len(native))
	}
	for k := range native {
		if !aspSols[k] {
			t.Fatal("ASP misses a native solution")
		}
	}
}

// TestTheorem10Figure1Maximal: the ⊆-maximal eq-projections are exactly
// MaxSol = {M1, M2}.
func TestTheorem10Figure1Maximal(t *testing.T) {
	f := fixtures.New()
	e, err := core.New(f.DB, f.Spec, f.Sims, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(New(f.DB, f.Spec, f.Sims), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	nativeMax, err := e.MaximalSolutionsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	nativeKeys := make(map[string]bool)
	for _, m := range nativeMax {
		nativeKeys[m.Key()] = true
	}
	var aspMax []*eqrel.Partition
	s.MaximalSolutions(func(E *eqrel.Partition) bool {
		aspMax = append(aspMax, E)
		return true
	})
	if len(aspMax) != len(nativeMax) {
		t.Fatalf("ASP maximal = %d, native = %d", len(aspMax), len(nativeMax))
	}
	for _, m := range aspMax {
		if !nativeKeys[m.Key()] {
			t.Errorf("ASP maximal solution %s not maximal natively", m.Format(f.DB.Interner()))
		}
	}
}

// TestTheorem10Coherence: a solution exists iff (Π_Sol, D) is coherent,
// on both a coherent and an incoherent instance.
func TestTheorem10Coherence(t *testing.T) {
	f := fixtures.New()
	s, err := NewSolver(New(f.DB, f.Spec, f.Sims), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Existence(); !ok {
		t.Error("Figure 1 encoding incoherent")
	}

	// Unrepairable instance.
	sch := db.NewSchema()
	sch.MustAdd("P", "a")
	sch.MustAdd("Q", "a")
	sch.MustAdd("R", "a", "b")
	d := db.New(sch, nil)
	d.MustInsert("P", "x")
	d.MustInsert("Q", "x")
	d.MustInsert("R", "x", "y")
	spec, err := rules.ParseSpec(`soft R(x,y) ~> EQ(x,y). denial P(v), Q(v).`, sch, d.Interner(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSolver(New(d, spec, nil), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s2.Existence(); ok {
		t.Error("unrepairable instance coherent in ASP")
	}
}

// randomInstance generates a small random database and specification
// exercising joins, hard rules, similarity and inequality denials.
func randomInstance(rng *rand.Rand) (*db.Database, *rules.Spec, *sim.Registry, error) {
	sch := db.NewSchema()
	sch.MustAdd("R", "a", "b")
	sch.MustAdd("S", "k", "v")
	sch.MustAdd("N", "id", "name")
	d := db.New(sch, nil)
	consts := []string{"c0", "c1", "c2", "c3", "c4"}
	names := []string{"na", "nb", "nc"}
	nr := 2 + rng.Intn(4)
	for i := 0; i < nr; i++ {
		d.MustInsert("R", consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))])
	}
	ns := 2 + rng.Intn(4)
	for i := 0; i < ns; i++ {
		d.MustInsert("S", consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))])
	}
	for i := 0; i < 3; i++ {
		d.MustInsert("N", consts[rng.Intn(len(consts))], names[rng.Intn(len(names))])
	}
	tbl := sim.NewTable("approx").Add("na", "nb")
	if rng.Intn(2) == 0 {
		tbl.Add("nb", "nc")
	}
	reg := sim.NewRegistry(tbl)

	specSrc := `soft s1: R(x,y) ~> EQ(x,y).
soft s2: N(x,n), N(y,n2), approx(n,n2) ~> EQ(x,y).`
	if rng.Intn(2) == 0 {
		specSrc += "\nhard h1: S(z,x), S(z,y) => EQ(x,y)."
	}
	switch rng.Intn(3) {
	case 0:
		specSrc += "\ndenial d1: S(k,v), S(k,v2), v != v2."
	case 1:
		specSrc += "\ndenial d1: R(x,x)."
	default:
		specSrc += "\ndenial d1: S(k,v), R(v,k)."
	}
	spec, err := rules.ParseSpec(specSrc, sch, d.Interner(), reg)
	if err != nil {
		return nil, nil, nil, err
	}
	return d, spec, reg, nil
}

// TestTheorem10Random cross-validates native and ASP solution sets on
// 60 random instances — the strongest evidence that both engines
// implement the same semantics.
func TestTheorem10Random(t *testing.T) {
	rng := rand.New(rand.NewSource(2022))
	for trial := 0; trial < 60; trial++ {
		d, spec, reg, err := randomInstance(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		e, err := core.New(d, spec, reg, core.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		s, err := NewSolver(New(d, spec, reg), nil, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		native := collectNative(t, e)
		aspSols := collectASP(t, s)
		if len(native) != len(aspSols) {
			t.Fatalf("trial %d: native %d solutions, ASP %d\nDB:\n%s\nSpec:\n%s",
				trial, len(native), len(aspSols), d, spec)
		}
		for k := range native {
			if !aspSols[k] {
				t.Fatalf("trial %d: ASP misses a native solution\nDB:\n%s\nSpec:\n%s", trial, d, spec)
			}
		}
	}
}

// TestTheorem10RandomMaximal cross-validates the maximal solution sets.
func TestTheorem10RandomMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(7077))
	for trial := 0; trial < 30; trial++ {
		d, spec, reg, err := randomInstance(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		e, err := core.New(d, spec, reg, core.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		s, err := NewSolver(New(d, spec, reg), nil, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		nat, err := e.MaximalSolutionsCtx(context.Background())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		natKeys := make(map[string]bool)
		for _, m := range nat {
			natKeys[m.Key()] = true
		}
		count := 0
		s.MaximalSolutions(func(E *eqrel.Partition) bool {
			count++
			if !natKeys[E.Key()] {
				t.Fatalf("trial %d: ASP maximal not native-maximal\nDB:\n%s\nSpec:\n%s", trial, d, spec)
			}
			return true
		})
		if count != len(nat) {
			t.Fatalf("trial %d: ASP %d maximal, native %d\nDB:\n%s\nSpec:\n%s",
				trial, count, len(nat), d, spec)
		}
	}
}

// TestEncodingText: the program renders to clingo-compatible text with
// the documented predicate naming.
func TestEncodingText(t *testing.T) {
	f := fixtures.New()
	prog, err := New(f.DB, f.Spec, f.Sims).Program()
	if err != nil {
		t.Fatal(err)
	}
	text := prog.String()
	for _, want := range []string{
		"r_author(", "s_approx(", "adom(X1) :- r_author(X1,X2,X3).",
		"eq(Y,X) :- eq(X,Y).", "eq(X,Z) :- eq(X,Y), eq(Y,Z).",
		"eq(X,X) :- adom(X).",
		"eq(X,Y) :- active(X,Y), not neq(X,Y).",
		"neq(X,Y) :- active(X,Y), not eq(X,Y).",
	} {
		if !containsLine(text, want) {
			t.Errorf("encoding missing %q", want)
		}
	}
	if err := prog.Validate(); err != nil {
		t.Errorf("encoding not safe: %v", err)
	}
}

func containsLine(text, want string) bool {
	for _, line := range splitLines(text) {
		if len(line) >= len(want) && line[:len(want)] == want {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// TestExample7Delta1Encoding reproduces Example 7: the encoding of δ1
// joins the two Wrote atoms on x and z via eq and guards the inequality
// with "not eq".
func TestExample7Delta1Encoding(t *testing.T) {
	f := fixtures.New()
	prog, err := New(f.DB, f.Spec, f.Sims).Program()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range prog.Rules {
		if r.Head != nil {
			continue
		}
		var rel, eqs, negs int
		for _, l := range r.Body {
			switch {
			case l.Neg:
				negs++
			case l.Atom.Pred == "r_wrote":
				rel++
			case l.Atom.Pred == PredEq:
				eqs++
			}
		}
		// δ1: two Wrote atoms, eq joins for x and z, one not-eq for
		// y != y2.
		if rel == 2 && eqs == 2 && negs == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("δ1 encoding of Example 7 not found in:\n%s", prog)
	}
}
