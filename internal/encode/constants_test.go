package encode

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/rules"
)

// constInstance: rules and denials mentioning constants, whose
// interpretation must be up to the derived merges (class semantics) in
// BOTH pipelines — the subtle corner of the q+ transformation.
func constInstance(t *testing.T) (*db.Database, *rules.Spec) {
	t.Helper()
	s := db.NewSchema()
	s.MustAdd("P", "id", "tag")
	s.MustAdd("L", "a", "b")
	d := db.New(s, nil)
	// "special" is a tag constant; u carries a merged variant of it.
	d.MustInsert("P", "u", "specialX")
	d.MustInsert("P", "v", "plain")
	d.MustInsert("P", "w", "special")
	d.MustInsert("L", "specialX", "special") // tag variants linkable
	d.MustInsert("L", "u", "v")
	spec, err := rules.ParseSpec(`
		soft s1: L(x,y) ~> EQ(x,y).
		soft s2: P(x,"special"), P(y,"special") ~> EQ(x,y).
		denial d1: P(x,"special"), P(y,"plain"), L(x,y).
	`, s, d.Interner(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return d, spec
}

// TestConstantsClassSemantics: after merging the tag constants
// (specialX ~ special), rule s2's body constant "special" must match
// the fact P(u, specialX), and denial d1 must see it too.
func TestConstantsClassSemantics(t *testing.T) {
	d, spec := constInstance(t)
	e, err := core.New(d, spec, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lookup := func(n string) db.Const {
		c, ok := d.Interner().Lookup(n)
		if !ok {
			t.Fatalf("missing constant %s", n)
		}
		return c
	}
	// Initially only w matches P(·, "special"): s2 gives only (w,w).
	act, err := e.ActivePairs(e.Identity())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range act {
		if a.Pair == eqrel.MakePair(lookup("u"), lookup("w")) {
			t.Fatal("(u,w) active before the tag merge")
		}
	}
	// After the tag merge, u's tag is in "special"'s class, so (u,w)
	// becomes derivable.
	E := e.FromPairs([]eqrel.Pair{eqrel.MakePair(lookup("specialX"), lookup("special"))})
	act, err = e.ActivePairs(E)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range act {
		if a.Pair == eqrel.MakePair(lookup("u"), lookup("w")) {
			found = true
		}
	}
	if !found {
		t.Error("body constant not interpreted up to merges: (u,w) not active")
	}
	// Denial d1 with the tag merged and (u,v) linked: P(u,"special")
	// (via class) ∧ P(v,"plain") ∧ L(u,v) — violated.
	ok := e.SatisfiesDenials(E)
	if ok {
		t.Error("denial with body constant not evaluated up to merges")
	}
}

// TestConstantsTheorem10: the two pipelines agree on the
// constants-in-bodies instance (solution sets and maximal solutions).
func TestConstantsTheorem10(t *testing.T) {
	d, spec := constInstance(t)
	e, err := core.New(d, spec, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(New(d, spec, nil), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	native := collectNative(t, e)
	aspSols := collectASP(t, s)
	if len(native) == 0 {
		t.Fatal("no native solutions")
	}
	if len(native) != len(aspSols) {
		t.Fatalf("native %d vs ASP %d solutions", len(native), len(aspSols))
	}
	for k := range native {
		if !aspSols[k] {
			t.Fatal("ASP misses a native solution on the constants instance")
		}
	}
	nat, err := e.MaximalSolutionsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	keys := map[string]bool{}
	for _, m := range nat {
		keys[m.Key()] = true
	}
	s2, err := NewSolver(New(d, spec, nil), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2.MaximalSolutions(func(E *eqrel.Partition) bool {
		count++
		if !keys[E.Key()] {
			t.Error("ASP maximal not native-maximal on the constants instance")
		}
		return true
	})
	if count != len(nat) {
		t.Errorf("maximal counts differ: ASP %d vs native %d", count, len(nat))
	}
}

// TestConstantInDenialOnly: a denial whose inequality involves a
// constant argument.
func TestConstantInDenialOnly(t *testing.T) {
	s := db.NewSchema()
	s.MustAdd("R", "a", "b")
	s.MustAdd("S", "a", "b")
	d := db.New(s, nil)
	d.MustInsert("R", "x", "forbidden")
	d.MustInsert("S", "x", "y")
	// Merging x's R-value with "forbidden"... here the denial fires
	// when R(v, w) holds with w ≠ "safe" — i.e. immediately.
	spec, err := rules.ParseSpec(`
		soft s1: S(x,y) ~> EQ(x,y).
		denial d1: R(v,w), w != "safe".
	`, s, d.Interner(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(d, spec, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := e.ExistenceCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("denial with constant inequality not enforced")
	}
	sv, err := NewSolver(New(d, spec, nil), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := sv.Existence(); ok {
		t.Error("ASP pipeline disagrees on the constant-inequality denial")
	}
}
