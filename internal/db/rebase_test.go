package db

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestApplySharesInterner: a batch naming only interned constants
// shares the parent's interner; one naming a new constant clones it and
// leaves the parent's untouched. Either way the child's interner is
// frozen and interning a new name into it panics.
func TestApplySharesInterner(t *testing.T) {
	d := New(mutSchema(), nil)
	d.MustInsert("R", "p", "q")
	d.MustInsert("S", "z")

	known, _, _, err := Apply(d, specs([]string{"R", "q", "p"}, []string{"S", "p"}), specs([]string{"S", "z"}))
	if err != nil {
		t.Fatal(err)
	}
	if known.Interner() != d.Interner() {
		t.Fatal("batch of known names cloned the interner")
	}
	fresh, _, _, err := Apply(known, specs([]string{"R", "p", "new"}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Interner() == d.Interner() {
		t.Fatal("batch with a new name shares the parent's interner")
	}
	if _, ok := d.Interner().Lookup("new"); ok {
		t.Fatal("the new name leaked into the parent's interner")
	}
	if !fresh.Interner().Frozen() || !d.Interner().Frozen() {
		t.Fatal("epoch interners must be frozen")
	}
	// Known names still intern; a new one fails loudly.
	if c := d.Interner().Intern("p"); d.Interner().Name(c) != "p" {
		t.Fatal("re-interning a known name failed")
	}
	for _, in := range []*Interner{d.Interner(), fresh.Interner()} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "frozen interner") {
					t.Fatalf("interning a new name into a frozen interner: recovered %v, want a panic", r)
				}
			}()
			in.Intern("never-seen")
		}()
	}
	if _, err := fresh.InsertNames("S", "never-seen"); err == nil {
		t.Fatal("insert into a frozen database succeeded")
	}
	if c := d.Interner().Clone(); c.Frozen() || c.Intern("never-seen") != Const(d.Interner().Size()) {
		t.Fatal("a clone of a frozen interner must take new names")
	}
}

// TestRebaseMatchesMap: re-deriving an induced database from an older
// one — drop the rows holding a class that splits, re-add the images
// of the base tuples holding its members and of inserted tuples — must
// equal mapping the new base database from scratch.
func TestRebaseMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		s := NewSchema()
		s.MustAdd("R", "a", "b")
		s.MustAdd("S", "k", "v", "w")
		s.MustAdd("U", "x")
		base := New(s, nil)
		n := 4 + rng.Intn(6)
		name := func() string { return fmt.Sprintf("c%d", rng.Intn(n)) }
		for i := 0; i < 2+rng.Intn(8); i++ {
			base.MustInsert("R", name(), name())
		}
		for i := 0; i < rng.Intn(6); i++ {
			base.MustInsert("S", name(), name(), name())
		}
		dom := base.Interner().Size()
		// An old representative function: random classes, each mapped
		// to its least member.
		old := make([]Const, dom)
		for i := range old {
			old[i] = Const(i)
		}
		for i := 0; i < rng.Intn(4); i++ {
			a, b := Const(rng.Intn(dom)), Const(rng.Intn(dom))
			ra, rb := old[a], old[b]
			lo, hi := min(ra, rb), max(ra, rb)
			for j := range old {
				if old[j] == hi {
					old[j] = lo
				}
			}
		}
		parent := base.Map(func(c Const) Const { return old[c] })
		if rng.Intn(2) == 0 {
			parent.Freeze()
		}
		// Split some classes back to singletons (the stale ones), then
		// insert a few tuples, some of them with brand-new names.
		split := make(map[Const]bool)
		for i := 0; i < rng.Intn(3); i++ {
			split[old[rng.Intn(dom)]] = true
		}
		var stale []Const
		for r := range split {
			stale = append(stale, r)
		}
		if rng.Intn(4) == 0 {
			stale = append(stale, NoConst, Const(dom+5))
		}
		var inserts []FactSpec
		for i := 0; i < rng.Intn(3); i++ {
			f := FactSpec{Rel: "R", Args: []string{name(), fmt.Sprintf("new%d", rng.Intn(3))}}
			if rng.Intn(2) == 0 {
				f = FactSpec{Rel: "U", Args: []string{name()}}
			}
			inserts = append(inserts, f)
		}
		nd, _, _, err := Apply(base, inserts, nil)
		if err != nil {
			t.Fatal(err)
		}
		in := nd.Interner()
		rep := func(c Const) Const {
			if int(c) < dom && !split[old[c]] {
				return old[c]
			}
			return c
		}
		extra := make(map[string][][]Const)
		for _, r := range s.Relations() {
			tbl := nd.Table(r.Name)
			if tbl == nil {
				continue
			}
			var members []Const
			for c := 0; c < dom; c++ {
				if split[old[c]] {
					members = append(members, Const(c))
				}
			}
			for _, row := range tbl.RowsHolding(members) {
				extra[r.Name] = append(extra[r.Name], tbl.Tuples()[row])
			}
		}
		for _, f := range inserts {
			args := make([]Const, len(f.Args))
			for i, a := range f.Args {
				args[i], _ = in.Lookup(a)
			}
			extra[f.Rel] = append(extra[f.Rel], args)
		}
		// Drop some rows by position too: the images of tuples a batch
		// retracts are dropped this way.
		drop := make(map[string][]int32)
		if tbl := parent.Table("R"); tbl != nil && rng.Intn(2) == 0 {
			row := int32(rng.Intn(tbl.Len()))
			drop["R"] = []int32{row, row}
			for _, tup := range base.Tuples("R") {
				m := []Const{old[tup[0]], old[tup[1]]}
				if tbl.Position(m) == int(row) {
					extra["R"] = append(extra["R"], tup)
				}
			}
		}
		got := Rebase(nd, parent, stale, drop, extra, rep)
		want := nd.Map(rep)
		if got.Interner() != nd.Interner() {
			t.Fatalf("trial %d: Rebase does not read the base's interner", trial)
		}
		if !got.Equal(want) || !want.Equal(got) {
			t.Fatalf("trial %d: Rebase != Map\nRebase:\n%s\nMap:\n%s", trial, got, want)
		}
		checkDerived(t, nd, got, rep)
	}
}

// TestRowsHoldingMatchesScan: the index-read row lists equal a scan,
// for random tables and constant lists with duplicates, NoConst and
// ids outside every column's range, on built, half-built and unbuilt
// indexes; the derivation's scan path agrees too.
func TestRowsHoldingMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		s := NewSchema()
		s.MustAdd("R", "a", "b", "c")
		d := New(s, nil)
		n := 2 + rng.Intn(20)
		for i := 0; i < rng.Intn(30); i++ {
			d.MustInsert("R", fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)))
		}
		tbl := d.Table("R")
		if tbl == nil {
			continue
		}
		var cs []Const
		for i := 0; i < rng.Intn(14); i++ {
			switch rng.Intn(6) {
			case 0:
				cs = append(cs, NoConst)
			case 1:
				cs = append(cs, Const(n+rng.Intn(70)))
			default:
				cs = append(cs, Const(rng.Intn(n)))
			}
		}
		var want []int32
		for i, tup := range tbl.Tuples() {
			for _, c := range tup {
				if slices.Contains(cs, c) {
					want = append(want, int32(i))
					break
				}
			}
		}
		scan := append([]int32(nil), tbl.rowsHolding(&constSet{list: cs})...)
		switch rng.Intn(3) {
		case 0:
			d.Freeze()
		case 1:
			tbl.Lookup(rng.Intn(3), 0)
		}
		got := tbl.RowsHolding(cs)
		if !slices.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("trial %d: RowsHolding(%v) = %v, scan %v", trial, cs, got, want)
		}
		if !slices.Equal(scan, want) && !(len(scan) == 0 && len(want) == 0) {
			t.Fatalf("trial %d: rowsHolding(%v) = %v, scan %v", trial, cs, scan, want)
		}
	}
}
