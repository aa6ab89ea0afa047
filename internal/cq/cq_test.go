package cq

import (
	"testing"

	"repro/internal/db"
	"repro/internal/sim"
)

// bibDB builds a small bibliographic database used across the tests.
func bibDB(t *testing.T) *db.Database {
	t.Helper()
	s := db.NewSchema()
	s.MustAdd("Author", "id", "email", "inst")
	s.MustAdd("Wrote", "pID", "aID", "pos")
	s.MustAdd("Paper", "id", "title", "cID")
	d := db.New(s, nil)
	d.MustInsert("Author", "a1", "wchen@gm.com", "Oxford")
	d.MustInsert("Author", "a2", "wchen@ox.uk", "Oxford")
	d.MustInsert("Author", "a4", "gln@nyu.us", "NYU")
	d.MustInsert("Wrote", "p1", "a1", "1")
	d.MustInsert("Wrote", "p1", "a2", "1")
	d.MustInsert("Wrote", "p2", "a4", "1")
	d.MustInsert("Paper", "p1", "A Survey", "c1")
	d.MustInsert("Paper", "p2", "Declarative ER", "c2")
	return d
}

func lookup(t *testing.T, d *db.Database, name string) db.Const {
	t.Helper()
	c, ok := d.Interner().Lookup(name)
	if !ok {
		t.Fatalf("constant %q not interned", name)
	}
	return c
}

func TestEvalSingleAtom(t *testing.T) {
	d := bibDB(t)
	q := &CQ{Head: []string{"x"}, Atoms: []Atom{Rel("Author", Var("x"), Var("e"), Var("u"))}}
	ans, err := Eval(q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 3 {
		t.Fatalf("got %d answers, want 3", len(ans))
	}
}

func TestEvalJoin(t *testing.T) {
	d := bibDB(t)
	// Authors of papers: join Wrote and Author.
	q := &CQ{
		Head: []string{"p", "u"},
		Atoms: []Atom{
			Rel("Wrote", Var("p"), Var("a"), Var("z")),
			Rel("Author", Var("a"), Var("e"), Var("u")),
		},
	}
	ans, err := Eval(q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	// (p1,Oxford) [from a1 and a2, deduped], (p2,NYU)
	if len(ans) != 2 {
		t.Fatalf("got %d answers, want 2: %v", len(ans), ans)
	}
}

func TestEvalWithConstant(t *testing.T) {
	d := bibDB(t)
	ox := lookup(t, d, "Oxford")
	q := &CQ{
		Head:  []string{"x"},
		Atoms: []Atom{Rel("Author", Var("x"), Var("e"), C(ox))},
	}
	ans, err := Eval(q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 {
		t.Fatalf("got %d Oxford authors, want 2", len(ans))
	}
}

func TestEvalRepeatedVariable(t *testing.T) {
	s := db.NewSchema()
	s.MustAdd("E", "a", "b")
	d := db.New(s, nil)
	d.MustInsert("E", "x", "x")
	d.MustInsert("E", "x", "y")
	q := &CQ{Head: []string{"v"}, Atoms: []Atom{Rel("E", Var("v"), Var("v"))}}
	ans, err := Eval(q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 {
		t.Fatalf("self-loop query: got %d answers, want 1", len(ans))
	}
}

func TestEvalSimilarityAtom(t *testing.T) {
	d := bibDB(t)
	reg := sim.NewRegistry(sim.NewTable("approx").Add("wchen@gm.com", "wchen@ox.uk"))
	// Two authors with similar emails and the same institution.
	q := &CQ{
		Head: []string{"x", "y"},
		Atoms: []Atom{
			Rel("Author", Var("x"), Var("e"), Var("u")),
			Rel("Author", Var("y"), Var("e2"), Var("u")),
			Sim("approx", Var("e"), Var("e2")),
			Neq(Var("x"), Var("y")),
		},
	}
	ans, err := Eval(q, d, reg)
	if err != nil {
		t.Fatal(err)
	}
	// (a1,a2) and (a2,a1). Note (a4,a4) excluded by Neq, and reflexive
	// sim makes (a1,a1) etc. excluded by Neq too.
	if len(ans) != 2 {
		t.Fatalf("got %d answers, want 2: %v", len(ans), ans)
	}
}

func TestSatisfiable(t *testing.T) {
	d := bibDB(t)
	holds := func(atoms []Atom) bool {
		t.Helper()
		p, err := Prepare(atoms, nil, d.Schema(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return p.Holds(d, RunSpec{})
	}
	if !holds([]Atom{Rel("Paper", Var("p"), Var("t"), Var("c"))}) {
		t.Fatal("Holds = false, want a Paper match")
	}
	nyu := lookup(t, d, "NYU")
	ox := lookup(t, d, "Oxford")
	if holds([]Atom{
		Rel("Author", Var("x"), Var("e"), C(nyu)),
		Rel("Author", Var("x"), Var("e2"), C(ox)),
	}) {
		t.Error("author in both NYU and Oxford found, want none")
	}
}

func TestEarlyStop(t *testing.T) {
	d := bibDB(t)
	p, err := Prepare([]Atom{Rel("Author", Var("x"), Var("e"), Var("u"))}, []string{"x"}, d.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	p.Run(d, RunSpec{}, func([]db.Const) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("early stop ignored: %d calls", calls)
	}
}

func TestValidate(t *testing.T) {
	d := bibDB(t)
	reg := sim.Default()
	good := &CQ{Head: []string{"x", "y"}, Atoms: []Atom{
		Rel("Author", Var("x"), Var("e"), Var("u")),
		Rel("Author", Var("y"), Var("e2"), Var("u")),
		Sim("jw90", Var("e"), Var("e2")),
	}}
	if err := good.Validate(d.Schema(), reg); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	bad := []*CQ{
		{Head: []string{"x"}, Atoms: []Atom{Rel("Nope", Var("x"))}},
		{Head: []string{"x"}, Atoms: []Atom{Rel("Author", Var("x"), Var("e"))}},
		{Head: []string{"z"}, Atoms: []Atom{Rel("Paper", Var("x"), Var("t"), Var("c"))}},
		{Head: nil, Atoms: []Atom{Rel("Paper", Var("x"), Var("t"), Var("c")), Sim("jw90", Var("t"), Var("w"))}},
		{Head: nil, Atoms: []Atom{Rel("Paper", Var("x"), Var("t"), Var("c")), Sim("none", Var("t"), Var("t"))}},
		{Head: nil, Atoms: []Atom{Rel("Paper", Var("x"), Var("t"), Var("c")), Neq(Var("x"), Var("w"))}},
	}
	for i, q := range bad {
		if err := q.Validate(d.Schema(), reg); err == nil {
			t.Errorf("bad query %d accepted: %v", i, q)
		}
	}
}

func TestUnsafeEvalError(t *testing.T) {
	d := bibDB(t)
	// A sim atom whose variable is never bound must fail at eval time.
	_, err := Eval(&CQ{Head: nil, Atoms: []Atom{
		Sim("approx", Var("u"), Var("v")),
	}}, d, sim.NewRegistry(sim.NewTable("approx")))
	if err == nil {
		t.Error("unsafe query evaluated without error")
	}
}

func TestEmptyRelation(t *testing.T) {
	s := db.NewSchema()
	s.MustAdd("R", "a")
	d := db.New(s, nil)
	ans, err := Eval(&CQ{Head: []string{"x"}, Atoms: []Atom{Rel("R", Var("x"))}}, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 0 {
		t.Errorf("empty relation produced answers: %v", ans)
	}
}

func TestRename(t *testing.T) {
	atoms := []Atom{Rel("R", Var("x"), C(7)), Neq(Var("x"), Var("y"))}
	out := Rename(atoms, func(v string) string { return v + "_1" })
	if out[0].Args[0].Name != "x_1" || out[1].Args[1].Name != "y_1" {
		t.Errorf("rename failed: %v", out)
	}
	if out[0].Args[1].IsVar || out[0].Args[1].Const != 7 {
		t.Errorf("constant mutated by rename: %v", out[0])
	}
	// original untouched
	if atoms[0].Args[0].Name != "x" {
		t.Error("rename mutated input")
	}
}

func TestVars(t *testing.T) {
	atoms := []Atom{Rel("R", Var("b"), Var("a")), Sim("s", Var("a"), Var("c"))}
	vs := Vars(atoms)
	if len(vs) != 3 || vs[0] != "a" || vs[1] != "b" || vs[2] != "c" {
		t.Errorf("Vars = %v", vs)
	}
}
