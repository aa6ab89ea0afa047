package db

import "testing"

// TestIntsKeyInjective: distinct sequences get distinct keys, including
// the boundary cases the varint encoding must delimit correctly.
func TestIntsKeyInjective(t *testing.T) {
	seqs := [][]int{
		{},
		{0},
		{0, 0},
		{1},
		{-1},
		{1, 2},
		{12},
		{2, 1},
		{127},
		{128},
		{-64},
		{-65},
		{1 << 20},
		{-(1 << 20)},
		{1, 2, 3},
		{1, 23},
	}
	seen := make(map[string][]int)
	for _, s := range seqs {
		k := IntsKey(s)
		if prev, dup := seen[k]; dup {
			t.Fatalf("IntsKey collision: %v and %v -> %q", prev, s, k)
		}
		seen[k] = s
	}
}

// TestIntsKeyDeterministic: equal sequences encode identically, and
// AppendInt composes into IntsKey.
func TestIntsKeyDeterministic(t *testing.T) {
	s := []int{3, -7, 1 << 16, 0}
	if IntsKey(s) != IntsKey(append([]int(nil), s...)) {
		t.Fatal("IntsKey not deterministic")
	}
	var buf []byte
	for _, x := range s {
		buf = AppendInt(buf, x)
	}
	if string(buf) != IntsKey(s) {
		t.Fatal("AppendInt composition differs from IntsKey")
	}
}

// TestFreeze pins the immutability contract parallel search relies on:
// a frozen database rejects inserts, has every column index built, and
// MapFrom over a frozen parent still works (reads only).
func TestFreeze(t *testing.T) {
	sch := NewSchema()
	sch.MustAdd("R", "a", "b")
	d := New(sch, nil)
	d.MustInsert("R", "x", "y")
	d.MustInsert("R", "y", "z")
	d.Freeze()
	if !d.Frozen() {
		t.Fatal("Frozen() = false after Freeze")
	}
	if _, err := d.InsertNames("R", "p", "q"); err == nil {
		t.Fatal("insert into frozen database succeeded")
	}
	tbl := d.Table("R")
	for i := 0; i < 2; i++ {
		if !tbl.cols[i].built {
			t.Fatalf("column index %d not built by Freeze", i)
		}
	}
	// Mapping a frozen parent only reads it.
	x, _ := d.Interner().Lookup("x")
	y, _ := d.Interner().Lookup("y")
	rep := func(c Const) Const {
		if c == y {
			return x
		}
		return c
	}
	m := MapFrom(d, []Const{y}, rep)
	if m.NumFacts() != 2 {
		t.Fatalf("mapped facts = %d, want 2", m.NumFacts())
	}
	if !m.Contains("R", x, x) {
		t.Fatal("mapped database missing R(x,x)")
	}
	// Freeze is idempotent.
	d.Freeze()
}
