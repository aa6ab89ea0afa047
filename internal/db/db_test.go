package db

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestInternerRoundTrip(t *testing.T) {
	in := NewInterner()
	a := in.Intern("alpha")
	b := in.Intern("beta")
	if a == b {
		t.Fatalf("distinct names interned to same id %d", a)
	}
	if in.Intern("alpha") != a {
		t.Errorf("re-interning alpha changed id")
	}
	if got := in.Name(a); got != "alpha" {
		t.Errorf("Name(a) = %q, want alpha", got)
	}
	if in.Size() != 2 {
		t.Errorf("Size = %d, want 2", in.Size())
	}
	if _, ok := in.Lookup("gamma"); ok {
		t.Errorf("Lookup(gamma) found nonexistent constant")
	}
}

func TestInternerDenseIDs(t *testing.T) {
	in := NewInterner()
	for i := 0; i < 100; i++ {
		id := in.Intern(strings.Repeat("x", i+1))
		if int(id) != i {
			t.Fatalf("id %d assigned for %d-th constant", id, i)
		}
	}
}

func TestInternerPropertyIdempotent(t *testing.T) {
	in := NewInterner()
	f := func(s string) bool {
		a := in.Intern(s)
		b := in.Intern(s)
		return a == b && in.Name(a) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchemaAdd(t *testing.T) {
	s := NewSchema()
	r, err := s.Add("Author", "id", "email", "inst")
	if err != nil {
		t.Fatal(err)
	}
	if r.Arity() != 3 {
		t.Errorf("arity = %d, want 3", r.Arity())
	}
	if r.AttrIndex("email") != 1 {
		t.Errorf("AttrIndex(email) = %d, want 1", r.AttrIndex("email"))
	}
	if r.AttrIndex("none") != -1 {
		t.Errorf("AttrIndex(none) should be -1")
	}
	if _, err := s.Add("Author", "id"); err == nil {
		t.Error("duplicate relation accepted")
	}
	if _, err := s.Add("Bad", "x", "x"); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := s.Add("Empty"); err == nil {
		t.Error("zero-arity relation accepted")
	}
	if _, err := s.Add(""); err == nil {
		t.Error("empty relation name accepted")
	}
}

func newTestDB(t *testing.T) *Database {
	t.Helper()
	s := NewSchema()
	s.MustAdd("R", "a", "b")
	s.MustAdd("S", "a")
	return New(s, nil)
}

func TestInsertAndContains(t *testing.T) {
	d := newTestDB(t)
	added, err := d.InsertNames("R", "x", "y")
	if err != nil || !added {
		t.Fatalf("first insert: added=%v err=%v", added, err)
	}
	added, err = d.InsertNames("R", "x", "y")
	if err != nil || added {
		t.Fatalf("duplicate insert: added=%v err=%v", added, err)
	}
	if d.NumFacts() != 1 {
		t.Errorf("NumFacts = %d, want 1", d.NumFacts())
	}
	x, _ := d.Interner().Lookup("x")
	y, _ := d.Interner().Lookup("y")
	if !d.Contains("R", x, y) {
		t.Error("Contains(R,x,y) = false")
	}
	if d.Contains("R", y, x) {
		t.Error("Contains(R,y,x) = true")
	}
	if _, err := d.InsertNames("T", "x"); err == nil {
		t.Error("insert into undeclared relation accepted")
	}
	if _, err := d.InsertNames("R", "x"); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestActiveDomain(t *testing.T) {
	d := newTestDB(t)
	d.MustInsert("R", "b", "a")
	d.MustInsert("S", "c")
	dom := d.ActiveDomain()
	if len(dom) != 3 {
		t.Fatalf("|dom| = %d, want 3", len(dom))
	}
	for i := 1; i < len(dom); i++ {
		if dom[i-1] >= dom[i] {
			t.Errorf("ActiveDomain not sorted: %v", dom)
		}
	}
}

func TestMapInducedDatabase(t *testing.T) {
	d := newTestDB(t)
	d.MustInsert("R", "a", "b")
	d.MustInsert("R", "a", "c")
	b, _ := d.Interner().Lookup("b")
	c, _ := d.Interner().Lookup("c")
	// Merge b and c: both tuples collapse to R(a,b).
	ind := d.Map(func(x Const) Const {
		if x == c {
			return b
		}
		return x
	})
	if ind.NumFacts() != 1 {
		t.Errorf("induced NumFacts = %d, want 1 (duplicates collapsed)", ind.NumFacts())
	}
	a, _ := d.Interner().Lookup("a")
	if !ind.Contains("R", a, b) {
		t.Error("induced database missing R(a,b)")
	}
	// Original untouched.
	if d.NumFacts() != 2 {
		t.Errorf("original mutated: NumFacts = %d", d.NumFacts())
	}
}

// TestEqual: two databases built from the same facts are Equal, and
// stop being Equal once one gains a fact.
func TestEqual(t *testing.T) {
	d, other := newTestDB(t), newTestDB(t)
	d.MustInsert("R", "a", "b")
	other.MustInsert("R", "a", "b")
	if !d.Equal(other) {
		t.Error("databases built from the same facts not Equal")
	}
	other.MustInsert("R", "c", "d")
	if d.Equal(other) {
		t.Error("different databases reported Equal")
	}
}

func TestTableIndex(t *testing.T) {
	d := newTestDB(t)
	d.MustInsert("R", "a", "b")
	d.MustInsert("R", "a", "c")
	d.MustInsert("R", "b", "c")
	a, _ := d.Interner().Lookup("a")
	if got := len(d.Table("R").Lookup(0, a)); got != 2 {
		t.Errorf("Lookup(0, a) has %d tuples, want 2", got)
	}
	// The index follows later inserts.
	d.MustInsert("R", "a", "d")
	if got := len(d.Table("R").Lookup(0, a)); got != 3 {
		t.Errorf("Lookup(0, a) after insert has %d tuples, want 3", got)
	}
}

// TestInsertMaintainsIndexes checks that inserting after an index is
// built updates it instead of dropping it, and keeps it consistent with
// the tuple list: every lookup returns exactly the matching positions,
// in ascending order.
func TestInsertMaintainsIndexes(t *testing.T) {
	d := newTestDB(t)
	d.MustInsert("R", "a", "b")
	d.MustInsert("R", "a", "c")
	tbl := d.Table("R")
	a, _ := d.Interner().Lookup("a")
	tbl.Lookup(0, a)
	tbl.Lookup(1, a)
	d.MustInsert("R", "a", "d")
	d.MustInsert("R", "e", "d")
	if !tbl.cols[0].built || !tbl.cols[1].built {
		t.Fatal("insert dropped a built column index")
	}
	if got := len(tbl.Lookup(0, a)); got != 3 {
		t.Errorf("Lookup(0, a) has %d positions, want 3", got)
	}
	dd, _ := d.Interner().Lookup("d")
	if got := len(tbl.Lookup(1, dd)); got != 2 {
		t.Errorf("Lookup(1, d) has %d positions, want 2", got)
	}
	checkLookups(t, tbl)
}

// checkLookups asserts that every column lookup of tbl returns exactly
// the ascending positions a scan finds, for NoConst and for every id up
// to two past the largest constant in it.
func checkLookups(t *testing.T, tbl *Table) {
	t.Helper()
	maxC := Const(0)
	for _, tup := range tbl.Tuples() {
		for _, c := range tup {
			maxC = max(maxC, c)
		}
	}
	checkLookupsUpTo(t, tbl, maxC+2)
}

// checkLookupsUpTo is checkLookups over the ids NoConst, 0, ..., maxC.
func checkLookupsUpTo(t *testing.T, tbl *Table, maxC Const) {
	t.Helper()
	for col := 0; col < tbl.Relation().Arity(); col++ {
		for c := NoConst; c <= maxC; c++ {
			var want []int32
			for pos, tup := range tbl.Tuples() {
				if tup[col] == c {
					want = append(want, int32(pos))
				}
			}
			if got := tbl.Lookup(col, c); !slices.Equal(got, want) {
				t.Fatalf("%s column %d value %d: Lookup = %v, scan = %v", tbl.Relation().Name, col, c, got, want)
			}
		}
	}
}

// TestLookupRandomTables checks the dense column index on random tables
// whose columns use a window of the interned ids, probing below each
// column's minimum, above its maximum, NoConst and ids interned after
// the build: right after a build, and after every insert into the built
// index of a value inside the range, below it or above it.
func TestLookupRandomTables(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		s := NewSchema()
		s.MustAdd("R", "a", "b", "c")
		d := New(s, nil)
		in := d.Interner()
		low := 1 + rng.Intn(6) // ids below every column's minimum
		for i := 0; i < low; i++ {
			in.Intern(fmt.Sprintf("low%d", i))
		}
		row := func() []string {
			return []string{
				fmt.Sprintf("c%d", rng.Intn(6)),
				fmt.Sprintf("c%d", 3+rng.Intn(4)),
				fmt.Sprintf("c%d", rng.Intn(10)),
			}
		}
		for i := 0; i < 1+rng.Intn(12); i++ {
			d.MustInsert("R", row()...)
		}
		tbl := d.Table("R")
		switch rng.Intn(3) {
		case 0:
			d.Freeze()
		case 1:
			tbl.Lookup(rng.Intn(3), 0) // builds one column
		default:
			tbl.build(0, 3)
		}
		// Constants interned after the build lie beyond every range. A
		// frozen database's interner takes no new name, so there the
		// same ids are probed without interning them.
		hi := Const(in.Size()) + 4
		if !d.Frozen() {
			for i := 0; i < 3; i++ {
				in.Intern(fmt.Sprintf("new%d", i))
			}
		}
		checkLookupsUpTo(t, tbl, hi)
		if d.Frozen() {
			continue
		}
		for i := 0; i < 1+rng.Intn(6); i++ {
			args := row()
			switch rng.Intn(3) {
			case 0:
				args[rng.Intn(3)] = fmt.Sprintf("low%d", rng.Intn(low))
			case 1:
				args[rng.Intn(3)] = fmt.Sprintf("new%d", rng.Intn(5))
			}
			d.MustInsert("R", args...)
			checkLookupsUpTo(t, tbl, Const(in.Size())+1)
		}
	}
}

// TestMapFromMatchesMap is the differential property test for the
// incremental induced-database derivation: on random databases and
// random merge steps, MapFrom(parent, dirty, rep) must equal the full
// parent.Map(rep), including when dirty is a strict superset of the
// constants that actually move. Every derived table, rebuilt or shared
// from a (sometimes frozen) parent, must also hold each mapped tuple
// exactly once and answer every column lookup with exactly the
// ascending positions a scan finds.
func TestMapFromMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	names := []string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"}
	for trial := 0; trial < 200; trial++ {
		s := NewSchema()
		s.MustAdd("R", "a", "b")
		s.MustAdd("S", "k", "v", "w")
		d := New(s, nil)
		for i := 0; i < 3+rng.Intn(8); i++ {
			d.MustInsert("R", names[rng.Intn(len(names))], names[rng.Intn(len(names))])
		}
		for i := 0; i < rng.Intn(6); i++ {
			d.MustInsert("S", names[rng.Intn(len(names))],
				names[rng.Intn(len(names))], names[rng.Intn(len(names))])
		}
		n := d.Interner().Size()
		// A random representative function built from random merges:
		// every class maps to its smallest member.
		rep := make([]Const, n)
		for i := range rep {
			rep[i] = Const(i)
		}
		repOf := func(c Const) Const {
			for rep[c] != c {
				c = rep[c]
			}
			return c
		}
		// First a base partition, applied fully.
		for i := 0; i < rng.Intn(3); i++ {
			a, b := repOf(Const(rng.Intn(n))), repOf(Const(rng.Intn(n)))
			if a != b {
				if a < b {
					rep[b] = a
				} else {
					rep[a] = b
				}
			}
		}
		parent := d.Map(repOf)
		if rng.Intn(2) == 0 {
			// Frozen parents share tables with built indexes.
			parent.Freeze()
		}
		// Then one incremental merge step on top of it.
		var dirty []Const
		for i := 0; i < 1+rng.Intn(2); i++ {
			a, b := repOf(Const(rng.Intn(n))), repOf(Const(rng.Intn(n)))
			if a == b {
				continue
			}
			if a < b {
				rep[b] = a
			} else {
				rep[a] = b
			}
			dirty = append(dirty, a, b)
		}
		if rng.Intn(2) == 0 {
			// dirty may be a superset of the moved constants.
			dirty = append(dirty, Const(rng.Intn(n)))
		}
		got := MapFrom(parent, dirty, repOf)
		want := parent.Map(repOf)
		if !got.Equal(want) {
			t.Fatalf("trial %d: MapFrom != Map\nMapFrom:\n%s\nMap:\n%s", trial, got, want)
		}
		// And both equal the from-scratch mapping of the original.
		if scratch := d.Map(repOf); !got.Equal(scratch) {
			t.Fatalf("trial %d: MapFrom != original.Map\ngot:\n%s\nwant:\n%s", trial, got, scratch)
		}
		checkDerived(t, d, got, repOf)
		if rng.Intn(2) == 0 {
			got.Freeze()
			checkDerived(t, d, got, repOf)
		}
	}
}

// checkDerived asserts that every table of got, derived from d through
// rep, holds each distinct mapped tuple of d exactly once and answers
// every column lookup as a scan does.
func checkDerived(t *testing.T, d, got *Database, rep func(Const) Const) {
	t.Helper()
	total := 0
	for _, r := range d.Schema().Relations() {
		want := make(map[string]bool)
		for _, tup := range d.Tuples(r.Name) {
			m := make([]Const, len(tup))
			for i, c := range tup {
				m[i] = rep(c)
			}
			want[TupleKey(m)] = true
		}
		tbl := got.Table(r.Name)
		if tbl == nil {
			if len(want) > 0 {
				t.Fatalf("%s: derived table missing", r.Name)
			}
			continue
		}
		seen := make(map[string]bool)
		for _, tup := range tbl.Tuples() {
			k := TupleKey(tup)
			if seen[k] {
				t.Fatalf("%s: tuple %v kept twice", r.Name, tup)
			}
			if !want[k] {
				t.Fatalf("%s: tuple %v is not a mapped tuple", r.Name, tup)
			}
			if !got.Contains(r.Name, tup...) {
				t.Fatalf("%s: Contains(%v) = false", r.Name, tup)
			}
			seen[k] = true
		}
		if len(seen) != len(want) {
			t.Fatalf("%s: %d distinct tuples, want %d", r.Name, len(seen), len(want))
		}
		total += len(seen)
		checkLookups(t, tbl)
	}
	if got.NumFacts() != total {
		t.Fatalf("NumFacts = %d, want %d", got.NumFacts(), total)
	}
}

func TestFactsOrdering(t *testing.T) {
	d := newTestDB(t)
	d.MustInsert("S", "z")
	d.MustInsert("R", "a", "b")
	fs := d.Facts()
	if len(fs) != 2 {
		t.Fatalf("got %d facts", len(fs))
	}
	// R declared before S, so R facts come first regardless of insertion.
	if fs[0].Rel != "R" || fs[1].Rel != "S" {
		t.Errorf("facts not in schema order: %v", fs)
	}
}

func TestParseDatabase(t *testing.T) {
	src := `
# bibliographic toy
rel Author(id, email, inst).
Author(a1, "wchen@gm.com", Oxford).
Author(a2, "wchen@ox.uk", Oxford).
Wrote(p1, a1, 1).  % implicit declaration
`
	d, err := ParseDatabase(src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumFacts() != 3 {
		t.Errorf("NumFacts = %d, want 3", d.NumFacts())
	}
	r, ok := d.Schema().Relation("Author")
	if !ok || r.Arity() != 3 || r.Attrs[1] != "email" {
		t.Errorf("Author relation wrong: %v", r)
	}
	w, ok := d.Schema().Relation("Wrote")
	if !ok || w.Arity() != 3 || w.Attrs[0] != "a1" {
		t.Errorf("implicit Wrote relation wrong: %v", w)
	}
	if _, ok := d.Interner().Lookup("wchen@gm.com"); !ok {
		t.Error("quoted constant not interned")
	}
}

func TestParseDatabaseErrors(t *testing.T) {
	cases := []string{
		`Author(a1, a2`,                          // unterminated
		`Author(a1).` + "\n" + `Author(a1, a2).`, // arity clash
		`rel R(x, x).`,                           // dup attrs
		`R(a) R(b).`,                             // missing dot
		`"unterminated`,                          // bad string
		`R(a,).`,                                 // missing arg
		`= R(a).`,                                // stray =
	}
	for _, src := range cases {
		if _, err := ParseDatabase(src, nil, nil); err == nil {
			t.Errorf("ParseDatabase(%q) succeeded, want error", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	d := newTestDB(t)
	d.MustInsert("R", "a", "hello world")
	d.MustInsert("S", "b")
	out := d.String()
	d2, err := ParseDatabase(out, nil, nil)
	if err != nil {
		t.Fatalf("re-parse of String() failed: %v\n%s", err, out)
	}
	if d2.NumFacts() != d.NumFacts() {
		t.Errorf("round trip lost facts: %d vs %d", d2.NumFacts(), d.NumFacts())
	}
	if _, ok := d2.Interner().Lookup("hello world"); !ok {
		t.Error("quoted constant lost in round trip")
	}
}
