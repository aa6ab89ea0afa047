package cq

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/db"
	"repro/internal/sim"
)

// oracleMatches enumerates homomorphisms by brute force: every
// assignment of body variables to active-domain constants is checked
// against all atoms. It is the specification Plan.Run is
// differentially tested against.
func oracleMatches(t *testing.T, atoms []Atom, head []string, d *db.Database,
	sims *sim.Registry, rep func(db.Const) db.Const, bind map[string]db.Const) [][]db.Const {
	t.Helper()
	resolve := func(c db.Const) db.Const {
		if rep != nil {
			return rep(c)
		}
		return c
	}
	vars := Vars(atoms)
	dom := d.ActiveDomain()
	assign := make(map[string]db.Const)
	var out [][]db.Const
	holds := func(a Atom) bool {
		val := func(tm Term) db.Const {
			if tm.IsVar {
				return assign[tm.Name]
			}
			return resolve(tm.Const)
		}
		switch a.Kind {
		case KindRel:
			args := make([]db.Const, len(a.Args))
			for i, tm := range a.Args {
				args[i] = val(tm)
			}
			return d.Contains(a.Pred, args...)
		case KindSim:
			p, ok := sims.Lookup(a.Pred)
			if !ok {
				return false
			}
			return p.Holds(d.Interner().Name(val(a.Args[0])), d.Interner().Name(val(a.Args[1])))
		default: // KindNeq
			return val(a.Args[0]) != val(a.Args[1])
		}
	}
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			for _, a := range atoms {
				if !holds(a) {
					return
				}
			}
			ans := make([]db.Const, len(head))
			for k, h := range head {
				ans[k] = assign[h]
			}
			out = append(out, ans)
			return
		}
		v := vars[i]
		if c, ok := bind[v]; ok {
			assign[v] = c
			rec(i + 1)
			return
		}
		for _, c := range dom {
			assign[v] = c
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

func sortAnswers(ts [][]db.Const) {
	sort.Slice(ts, func(i, j int) bool {
		for k := range ts[i] {
			if ts[i][k] != ts[j][k] {
				return ts[i][k] < ts[j][k]
			}
		}
		return false
	})
}

func dedupAnswers(ts [][]db.Const) [][]db.Const {
	seen := make(map[string]bool)
	var out [][]db.Const
	for _, t := range ts {
		k := db.TupleKey(t)
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}

// randomInstance builds a random database, a random two-atom join query
// with an optional sim/neq filter, and a similarity registry.
func randomInstance(rng *rand.Rand) (*db.Database, []Atom, []string, *sim.Registry) {
	s := db.NewSchema()
	s.MustAdd("R", "a", "b")
	s.MustAdd("S", "k", "v")
	d := db.New(s, nil)
	names := []string{"c0", "c1", "c2", "c3", "c4"}
	for i := 0; i < 2+rng.Intn(8); i++ {
		d.MustInsert("R", names[rng.Intn(len(names))], names[rng.Intn(len(names))])
	}
	for i := 0; i < 1+rng.Intn(6); i++ {
		d.MustInsert("S", names[rng.Intn(len(names))], names[rng.Intn(len(names))])
	}
	tbl := sim.NewTable("approx").Add("c0", "c1").Add("c2", "c3")
	reg := sim.NewRegistry(tbl)
	atoms := []Atom{
		Rel("R", Var("x"), Var("y")),
		Rel("S", Var("y"), Var("z")),
	}
	switch rng.Intn(4) {
	case 0:
		atoms = append(atoms, Sim("approx", Var("x"), Var("z")))
	case 1:
		atoms = append(atoms, Neq(Var("x"), Var("z")))
	case 2:
		atoms = append(atoms, Rel("R", Var("z"), Var("x")))
	}
	heads := [][]string{{"x", "y"}, {"x", "z"}, {"x"}, nil}
	return d, atoms, heads[rng.Intn(len(heads))], reg
}

// TestPlanRunMatchesOracle differentially tests Plan.Run against the
// brute-force oracle and the Eval wrapper on randomized instances.
func TestPlanRunMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		d, atoms, head, reg := randomInstance(rng)
		p, err := Prepare(atoms, head, d.Schema(), reg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var got [][]db.Const
		p.Run(d, RunSpec{}, func(ans []db.Const) bool {
			got = append(got, append([]db.Const(nil), ans...))
			return true
		})
		got = dedupAnswers(got)
		sortAnswers(got)
		want := dedupAnswers(oracleMatches(t, atoms, head, d, reg, nil, nil))
		sortAnswers(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d answers, oracle has %d", trial, len(got), len(want))
		}
		for i := range got {
			if db.TupleKey(got[i]) != db.TupleKey(want[i]) {
				t.Fatalf("trial %d: answer %d = %v, oracle %v", trial, i, got[i], want[i])
			}
		}
		// The Eval wrapper agrees byte for byte.
		ev, err := Eval(&CQ{Head: head, Atoms: atoms}, d, reg)
		if err != nil {
			t.Fatal(err)
		}
		if len(ev) != len(want) {
			t.Fatalf("trial %d: Eval %d answers, oracle %d", trial, len(ev), len(want))
		}
		for i := range ev {
			if db.TupleKey(ev[i]) != db.TupleKey(want[i]) {
				t.Fatalf("trial %d: Eval answer %d = %v, oracle %v", trial, i, ev[i], want[i])
			}
		}
	}
}

// TestPlanReuseAcrossDatabases checks the core contract of Prepare: a
// plan binds to a database only at run time, so one plan evaluated on
// different databases gives each database's own answers.
func TestPlanReuseAcrossDatabases(t *testing.T) {
	s := db.NewSchema()
	s.MustAdd("R", "a", "b")
	in := db.NewInterner()
	d1 := db.New(s, in)
	d1.MustInsert("R", "x", "y")
	d1.MustInsert("R", "y", "z")
	d2 := db.New(s, in)
	d2.MustInsert("R", "p", "q")

	atoms := []Atom{Rel("R", Var("u"), Var("v"))}
	p, err := Prepare(atoms, []string{"u", "v"}, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	count := func(d *db.Database) int {
		n := 0
		p.Run(d, RunSpec{}, func([]db.Const) bool { n++; return true })
		return n
	}
	if got := count(d1); got != 2 {
		t.Errorf("d1 answers = %d, want 2", got)
	}
	if got := count(d2); got != 1 {
		t.Errorf("d2 answers = %d, want 1", got)
	}
	if got := count(d1); got != 2 {
		t.Errorf("d1 answers after reuse = %d, want 2", got)
	}
}

// TestPlanRunWithRepAndBind checks run-time constant remapping and
// variable pre-binding against the oracle.
func TestPlanRunWithRepAndBind(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		d, atoms, head, reg := randomInstance(rng)
		// Random idempotent remapping of the first few constants.
		n := d.Interner().Size()
		target := db.Const(rng.Intn(n))
		src := db.Const(rng.Intn(n))
		rep := func(c db.Const) db.Const {
			if c == src {
				return target
			}
			return c
		}
		// Replace a variable with a constant argument sometimes, so rep
		// has constants to act on — but only while every sim/neq filter
		// on x keeps a relational binder (safety).
		xOnlyRelational := true
		for _, a := range atoms {
			if a.Kind == KindRel {
				continue
			}
			for _, tm := range a.Args {
				if tm.IsVar && tm.Name == "x" {
					xOnlyRelational = false
				}
			}
		}
		if xOnlyRelational && rng.Intn(2) == 0 {
			atoms = append([]Atom(nil), atoms...)
			atoms[0] = Rel("R", C(src), Var("y"))
			if len(head) > 0 && head[0] == "x" {
				head = head[1:]
			}
		}
		var bind map[string]db.Const
		if len(head) > 0 && rng.Intn(2) == 0 {
			bind = map[string]db.Const{head[0]: db.Const(rng.Intn(n))}
		}
		p, err := Prepare(atoms, head, d.Schema(), reg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var got [][]db.Const
		p.Run(d, RunSpec{Rep: rep, Bind: bind}, func(ans []db.Const) bool {
			got = append(got, append([]db.Const(nil), ans...))
			return true
		})
		got = dedupAnswers(got)
		sortAnswers(got)
		want := dedupAnswers(oracleMatches(t, atoms, head, d, reg, rep, bind))
		sortAnswers(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d answers, oracle has %d (atoms %v head %v)", trial, len(got), len(want), atoms, head)
		}
		for i := range got {
			if db.TupleKey(got[i]) != db.TupleKey(want[i]) {
				t.Fatalf("trial %d: answer %d = %v, oracle %v", trial, i, got[i], want[i])
			}
		}
	}
}

// deltaOracle is the specification of a delta run: it counts, by head
// answer, the matches of atoms into d under rs (its Delta and Unordered
// ignored) that use a tuple holding a touched constant. It runs the
// body with every variable in the head, so each match arrives once
// with its whole assignment, and rebuilds each relational atom's tuple
// from it.
func deltaOracle(t *testing.T, atoms []Atom, head []string, d *db.Database, sims *sim.Registry,
	rs RunSpec, touched map[db.Const]bool) map[string]int {
	t.Helper()
	vars := Vars(atoms)
	full, err := Prepare(atoms, vars, d.Schema(), sims)
	if err != nil {
		t.Fatal(err)
	}
	var assign []db.Const
	val := func(tm Term) db.Const {
		switch {
		case tm.IsVar:
			i, _ := slices.BinarySearch(vars, tm.Name)
			return assign[i]
		case rs.Rep != nil:
			return rs.Rep(tm.Const)
		}
		return tm.Const
	}
	uses := func() bool {
		for _, a := range atoms {
			for _, tm := range a.Args {
				if a.Kind == KindRel && touched[val(tm)] {
					return true
				}
			}
		}
		return false
	}
	want := make(map[string]int)
	ans := make([]db.Const, len(head))
	rs.Delta, rs.Unordered = nil, false
	full.Run(d, rs, func(vals []db.Const) bool {
		if assign = vals; uses() {
			for k, h := range head {
				ans[k] = val(Var(h))
			}
			want[db.TupleKey(ans)]++
		}
		return true
	})
	return want
}

// TestRunDeltaMatchesFilteredOracle checks the semi-naive primitive: a
// delta run enumerates exactly the matches that use at least one tuple
// containing a touched constant, each exactly once (deltaOracle).
func TestRunDeltaMatchesFilteredOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		d, atoms, head, reg := randomInstance(rng)
		n := d.Interner().Size()
		touchedSet := make(map[db.Const]bool)
		for i := 0; i < rng.Intn(3); i++ {
			touchedSet[db.Const(rng.Intn(n))] = true
		}
		delta := NewDelta(d, constList(touchedSet))
		p, err := Prepare(atoms, head, d.Schema(), reg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Count multiplicity: each qualifying match must appear once.
		got := make(map[string]int)
		p.Run(d, RunSpec{Delta: delta}, func(ans []db.Const) bool {
			got[db.TupleKey(ans)]++
			return true
		})
		want := deltaOracle(t, atoms, head, d, reg, RunSpec{}, touchedSet)
		if !sameCounts(got, want) {
			t.Fatalf("trial %d: delta run counted %v, oracle %v (touched %v)", trial, got, want, touchedSet)
		}
	}
}

// deltaShapes counts deltaInstance's query shapes.
const deltaShapes = 8

// deltaInstance extends randomInstance's generator with the query
// shapes the delta-first splits must handle: shape 0 is randomInstance
// itself; 1 is σ3's body (Paper/Paper and Wrote/Wrote self-joins with a
// similarity filter); 2 puts constants in atoms that become pivots; 3
// repeats variables inside and across atoms; 4 mixes all three. Shapes
// 5-7 are symmetric in x and y, for the mirror pruning of Unordered
// runs: 5 has a constant, repeated variables and swapped similarity
// arguments; 6 is ρ1's body, whose symmetry also swaps two non-head
// variables; 7 joins R(x,y) with R(y,x) under an inequality. Their
// head is (x,y) or (y,x) three times in four.
func deltaInstance(rng *rand.Rand, shape int) (*db.Database, []Atom, []string, *sim.Registry) {
	if shape == 0 {
		return randomInstance(rng)
	}
	s := db.NewSchema()
	s.MustAdd("Paper", "id", "title", "venue")
	s.MustAdd("Wrote", "paper", "author", "pos")
	s.MustAdd("R", "a", "b")
	d := db.New(s, nil)
	names := []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	pick := func() string { return names[rng.Intn(len(names))] }
	for i := 0; i < 2+rng.Intn(8); i++ {
		d.MustInsert("Paper", pick(), pick(), pick())
	}
	for i := 0; i < 2+rng.Intn(8); i++ {
		d.MustInsert("Wrote", pick(), pick(), pick())
	}
	for i := 0; i < rng.Intn(6); i++ {
		d.MustInsert("R", pick(), pick())
	}
	c := func() Term {
		id, _ := d.Interner().Lookup(pick())
		return C(id)
	}
	reg := sim.NewRegistry(sim.NewTable("approx").Add("c0", "c1").Add("c2", "c3"))
	x, y, t, t2, v, a, z := Var("x"), Var("y"), Var("t"), Var("t2"), Var("c"), Var("a"), Var("z")
	var atoms []Atom
	switch shape {
	case 1:
		atoms = []Atom{
			Rel("Paper", x, t, v), Rel("Paper", y, t2, v),
			Rel("Wrote", x, a, z), Rel("Wrote", y, a, z),
			Sim("approx", t, t2),
		}
	case 2:
		atoms = []Atom{Rel("Paper", x, c(), v), Rel("Wrote", x, a, c())}
		if rng.Intn(2) == 0 {
			atoms = append(atoms, Rel("R", c(), a))
		}
	case 3:
		atoms = []Atom{
			Rel("R", x, x), Rel("Wrote", x, a, a), Rel("Paper", y, a, y),
		}
	case 4:
		atoms = []Atom{
			Rel("Paper", x, t, v), Rel("Paper", y, t, v),
			Rel("Wrote", x, a, c()), Rel("Wrote", y, a, a),
			Neq(x, y),
		}
	case 5:
		k := c()
		atoms = []Atom{
			Rel("Paper", x, t, k), Rel("Paper", y, t2, k),
			Rel("Wrote", x, a, a), Rel("Wrote", y, a, a),
			Sim("approx", t2, t),
		}
	case 6:
		atoms = []Atom{
			Rel("R", z, x), Rel("R", z, y),
			Rel("Wrote", x, a, t), Rel("Wrote", y, a, t2),
		}
	default:
		atoms = []Atom{
			Rel("R", x, y), Rel("R", y, x),
			Rel("Paper", x, t, a), Rel("Paper", y, t, a),
			Neq(y, x),
		}
	}
	heads := [][]string{{"x", "y"}, {"x", "a"}, {"x"}, nil}
	head := heads[rng.Intn(len(heads))]
	switch {
	case shape == 2:
		head = heads[1+rng.Intn(3)] // shape 2 has no y
	case shape >= 5 && rng.Intn(4) > 0:
		head = [][]string{{"x", "y"}, {"y", "x"}}[rng.Intn(2)]
	}
	return d, atoms, head, reg
}

// FuzzRunDelta checks the multiplicities of delta runs against
// deltaOracle on deltaInstance's shapes, with a random, an all-touched
// or a none-touched delta, with and without a constant remapping. It
// also checks the Unordered contract (checkUnordered) of full and delta
// runs on each case, with and without a pre-bound head variable.
func FuzzRunDelta(f *testing.F) {
	for seed := int64(0); seed < 128; seed++ {
		for shape := uint8(0); shape < deltaShapes; shape++ {
			for touch := uint8(0); touch < 3; touch++ {
				f.Add(seed, shape, touch, seed%2 == 0)
			}
		}
	}
	f.Fuzz(checkRunDelta)
}

// checkRunDelta is one FuzzRunDelta case.
func checkRunDelta(t *testing.T, seed int64, shape, touch uint8, remap bool) {
	rng := rand.New(rand.NewSource(seed))
	shape %= deltaShapes
	d, atoms, head, reg := deltaInstance(rng, int(shape))
	n := d.Interner().Size()
	touchedSet := make(map[db.Const]bool)
	switch touch % 3 {
	case 0:
		for i := 0; i < 1+rng.Intn(3); i++ {
			touchedSet[db.Const(rng.Intn(n))] = true
		}
	case 1:
		for c := 0; c < n; c++ {
			touchedSet[db.Const(c)] = true
		}
	}
	rs := RunSpec{}
	if remap {
		// Fold the two largest ids together, as a merge step would.
		rs.Rep = func(c db.Const) db.Const { return min(c, db.Const(n-2)) }
	}
	p, err := Prepare(atoms, head, d.Schema(), reg)
	if err != nil {
		t.Fatalf("shape %d: %v", shape, err)
	}
	delta := NewDelta(d, constList(touchedSet))
	got := make(map[string]int)
	p.Run(d, RunSpec{Rep: rs.Rep, Delta: delta}, func(ans []db.Const) bool {
		got[db.TupleKey(ans)]++
		return true
	})
	if want := deltaOracle(t, atoms, head, d, reg, rs, touchedSet); !sameCounts(got, want) {
		t.Fatalf("shape %d: delta run counted %v, oracle %v (atoms %v, touched %v)",
			shape, got, want, atoms, touchedSet)
	}
	what := fmt.Sprintf("shape %d (atoms %v, head %v, touched %v)", shape, atoms, head, touchedSet)
	checkUnordered(t, p, d, rs, delta, what)
	if len(head) > 0 {
		rs.Bind = map[string]db.Const{head[len(head)-1]: db.Const(rng.Intn(n))}
		checkUnordered(t, p, d, rs, delta, what+" bound")
	}
}
