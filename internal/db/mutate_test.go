package db

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

func mutSchema() *Schema {
	s := NewSchema()
	s.MustAdd("R", "a", "b")
	s.MustAdd("S", "x")
	return s
}

func specs(facts ...[]string) []FactSpec {
	out := make([]FactSpec, len(facts))
	for i, f := range facts {
		out[i] = FactSpec{Rel: f[0], Args: f[1:]}
	}
	return out
}

func TestApplyBasics(t *testing.T) {
	d := New(mutSchema(), nil)
	d.MustInsert("R", "p", "q")
	d.MustInsert("R", "p", "r")
	d.MustInsert("S", "z")

	nd, ins, ret, err := Apply(d,
		specs([]string{"R", "u", "v"}, []string{"R", "p", "q"}),
		specs([]string{"R", "p", "r"}, []string{"S", "missing"}))
	if err != nil {
		t.Fatal(err)
	}
	if ins != 1 || ret != 1 {
		t.Fatalf("counts = (%d inserted, %d retracted), want (1, 1)", ins, ret)
	}
	if nd.NumFacts() != 3 {
		t.Fatalf("NumFacts = %d, want 3", nd.NumFacts())
	}
	if !d.Frozen() || !nd.Frozen() {
		t.Fatal("both parent and child must be frozen")
	}
	// Parent is untouched.
	if d.NumFacts() != 3 || !d.Contains("R", d.Interner().Intern("p"), d.Interner().Intern("r")) {
		t.Fatal("parent mutated by Apply")
	}
	// Untouched tables are shared by reference.
	if nd.Table("S") != d.Table("S") {
		t.Error("untouched table not shared with parent")
	}
	if nd.Table("R") == d.Table("R") {
		t.Error("touched table shared with parent")
	}
	// Interner clone preserved ids.
	for _, n := range []string{"p", "q", "r", "z"} {
		pc, _ := d.Interner().Lookup(n)
		cc, ok := nd.Interner().Lookup(n)
		if !ok || pc != cc {
			t.Fatalf("constant %q: id %d in parent, (%d, %v) in child", n, pc, cc, ok)
		}
	}
}

func TestApplyValidates(t *testing.T) {
	d := New(mutSchema(), nil)
	d.MustInsert("R", "p", "q")
	if _, _, _, err := Apply(d, specs([]string{"T", "x"}), nil); err == nil {
		t.Error("undeclared relation accepted")
	}
	if _, _, _, err := Apply(d, nil, specs([]string{"R", "only-one"})); err == nil {
		t.Error("arity mismatch accepted")
	}
	// A rejected batch must not have touched the parent.
	if d.Frozen() {
		t.Error("validation failure froze the parent")
	}
}

func TestApplyRetractThenInsertSameFact(t *testing.T) {
	d := New(mutSchema(), nil)
	d.MustInsert("R", "p", "q")
	nd, ins, ret, err := Apply(d, specs([]string{"R", "p", "q"}), specs([]string{"R", "p", "q"}))
	if err != nil {
		t.Fatal(err)
	}
	if ins != 1 || ret != 1 {
		t.Fatalf("counts = (%d, %d), want (1, 1)", ins, ret)
	}
	if nd.NumFacts() != 1 {
		t.Fatalf("NumFacts = %d, want 1", nd.NumFacts())
	}
	if nd.Fingerprint() != d.Fingerprint() {
		t.Error("retract+insert of the same fact changed the fingerprint")
	}
}

// TestFingerprintOrderIndependent: same fact set, different insertion
// orders and different interner layouts, same fingerprint.
func TestFingerprintOrderIndependent(t *testing.T) {
	a := New(mutSchema(), nil)
	a.MustInsert("R", "p", "q")
	a.MustInsert("R", "u", "v")
	a.MustInsert("S", "z")

	b := New(mutSchema(), nil)
	b.Interner().Intern("unrelated") // shift every id
	b.MustInsert("S", "z")
	b.MustInsert("R", "u", "v")
	b.MustInsert("R", "p", "q")

	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("fingerprints differ: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	b.MustInsert("S", "w")
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("fingerprint unchanged after adding a fact")
	}
}

// TestFingerprintIncremental pins the incremental accumulators against
// the full-scan fallback over random Apply chains: after any sequence
// of batches, the O(1) fingerprint equals the rescanned one, and a
// from-scratch database with the same facts agrees.
func TestFingerprintIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cur := New(mutSchema(), nil)
	for i := 0; i < 6; i++ {
		cur.MustInsert("R", "c"+strconv.Itoa(i), "c"+strconv.Itoa(i+1))
	}
	for step := 0; step < 30; step++ {
		var ins, ret []FactSpec
		for k := 0; k < 1+rng.Intn(3); k++ {
			ins = append(ins, FactSpec{Rel: "R", Args: []string{
				"c" + strconv.Itoa(rng.Intn(12)), "c" + strconv.Itoa(rng.Intn(12))}})
		}
		for k := 0; k < rng.Intn(3); k++ {
			ret = append(ret, FactSpec{Rel: "R", Args: []string{
				"c" + strconv.Itoa(rng.Intn(12)), "c" + strconv.Itoa(rng.Intn(12))}})
		}
		nd, _, _, err := Apply(cur, ins, ret)
		if err != nil {
			t.Fatal(err)
		}
		x, s := nd.contentHash()
		if nd.hashXor != x || nd.hashSum != s {
			t.Fatalf("step %d: incremental accumulators (%x, %x) != rescan (%x, %x)",
				step, nd.hashXor, nd.hashSum, x, s)
		}
		fresh := New(mutSchema(), nil)
		for _, f := range nd.Facts() {
			names := make([]string, len(f.Args))
			for i, c := range f.Args {
				names[i] = nd.Interner().Name(c)
			}
			fresh.MustInsert(f.Rel, names...)
		}
		if fresh.Fingerprint() != nd.Fingerprint() {
			t.Fatalf("step %d: rebuilt-from-scratch fingerprint differs", step)
		}
		if !fresh.Equal(indexAligned(fresh, nd)) {
			t.Fatalf("step %d: rebuilt database differs from overlay", step)
		}
		cur = nd
	}
}

// indexAligned re-renders nd's facts into fresh's interner space so
// Equal (which compares interned tuple keys) is meaningful.
func indexAligned(fresh, nd *Database) *Database {
	out := New(fresh.Schema(), fresh.Interner().Clone())
	for _, f := range nd.Facts() {
		names := make([]string, len(f.Args))
		for i, c := range f.Args {
			names[i] = nd.Interner().Name(c)
		}
		out.MustInsert(f.Rel, names...)
	}
	return out
}

func TestCloneCarriesFingerprint(t *testing.T) {
	d := New(mutSchema(), nil)
	d.MustInsert("R", "p", "q")
	c := d.Clone()
	if c.Fingerprint() != d.Fingerprint() {
		t.Error("clone fingerprint differs")
	}
	if !c.hashOK {
		t.Error("clone of a hash-valid database lost hash validity")
	}
}

func TestInducedFingerprintFallback(t *testing.T) {
	d := New(mutSchema(), nil)
	d.MustInsert("R", "p", "q")
	d.MustInsert("R", "q", "p")
	ind := d.Map(func(c Const) Const { return c }) // identity map, shared tables
	if ind.Fingerprint() != d.Fingerprint() {
		t.Error("induced database with identical facts fingerprints differently")
	}
}

func TestFactSpecString(t *testing.T) {
	f := FactSpec{Rel: "R", Args: []string{"p", "has space"}}
	if got := f.String(); got != `R(p, "has space")` {
		t.Errorf("String() = %q", got)
	}
}

// ExampleDatabase_Fingerprint: the fingerprint hashes content by
// constant name, so two databases holding the same facts, inserted in
// a different order under different constant ids, share it.
func ExampleDatabase_Fingerprint() {
	s := NewSchema()
	s.MustAdd("R", "a", "b")
	d1, d2 := New(s, nil), New(s, nil)
	d1.MustInsert("R", "x", "y")
	d1.MustInsert("R", "y", "z")
	d2.MustInsert("R", "y", "z")
	d2.MustInsert("R", "x", "y")
	fmt.Println(len(d1.Fingerprint()), d1.Fingerprint() == d2.Fingerprint())
	// Output: 32 true
}
