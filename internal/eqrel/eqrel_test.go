package eqrel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/db"
)

func TestIdentity(t *testing.T) {
	p := New(5)
	if !p.IsIdentity() {
		t.Error("fresh partition not identity")
	}
	if p.PairCount() != 0 || len(p.Pairs()) != 0 {
		t.Error("identity has nontrivial pairs")
	}
	for i := 0; i < 5; i++ {
		if p.Rep(db.Const(i)) != db.Const(i) {
			t.Errorf("Rep(%d) = %d in identity", i, p.Rep(db.Const(i)))
		}
	}
}

func TestUnionAndRep(t *testing.T) {
	p := New(6)
	if !p.Union(3, 5) {
		t.Error("first union reported no change")
	}
	if p.Union(3, 5) || p.Union(5, 3) {
		t.Error("repeated union reported change")
	}
	if !p.Same(3, 5) {
		t.Error("3 and 5 not same after union")
	}
	if p.Rep(5) != 3 || p.Rep(3) != 3 {
		t.Errorf("rep of {3,5} = %d,%d, want 3 (minimum)", p.Rep(3), p.Rep(5))
	}
	p.Union(5, 1)
	if p.Rep(3) != 1 || p.Rep(5) != 1 || p.Rep(1) != 1 {
		t.Error("rep of {1,3,5} is not the minimum id 1")
	}
	if p.Same(0, 1) {
		t.Error("0 and 1 wrongly merged")
	}
}

func TestTransitiveClosure(t *testing.T) {
	p := NewFromPairs(6, []Pair{MakePair(0, 1), MakePair(1, 2)})
	if !p.Same(0, 2) {
		t.Error("transitivity: 0 ~ 2 missing")
	}
	pairs := p.Pairs()
	if len(pairs) != 3 {
		t.Errorf("pairs of a 3-class: %d, want 3", len(pairs))
	}
	want := []Pair{{0, 1}, {0, 2}, {1, 2}}
	for i, w := range want {
		if pairs[i] != w {
			t.Errorf("pairs[%d] = %v, want %v", i, pairs[i], w)
		}
	}
	if p.PairCount() != 3 {
		t.Errorf("PairCount = %d, want 3", p.PairCount())
	}
}

func TestMergedCount(t *testing.T) {
	p := New(10)
	p.Union(0, 1)
	if p.MergedCount() != 2 {
		t.Errorf("MergedCount = %d, want 2", p.MergedCount())
	}
	p.Union(1, 2)
	if p.MergedCount() != 3 {
		t.Errorf("MergedCount = %d, want 3", p.MergedCount())
	}
	p.Union(4, 5)
	p.Union(0, 4) // merge two nontrivial classes
	if p.MergedCount() != 5 {
		t.Errorf("MergedCount = %d, want 5", p.MergedCount())
	}
}

func TestSubsetEqual(t *testing.T) {
	a := NewFromPairs(5, []Pair{{0, 1}})
	b := NewFromPairs(5, []Pair{{0, 1}, {2, 3}})
	if !a.Subset(b) {
		t.Error("a ⊆ b expected")
	}
	if b.Subset(a) {
		t.Error("b ⊆ a unexpected")
	}
	if !a.ProperSubset(b) || b.ProperSubset(a) {
		t.Error("ProperSubset wrong")
	}
	c := NewFromPairs(5, []Pair{{1, 0}})
	if !a.Equal(c) {
		t.Error("same relation not Equal")
	}
	if a.Equal(b) {
		t.Error("different relations Equal")
	}
	if a.Subset(New(4)) {
		t.Error("different domains comparable")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewFromPairs(5, []Pair{{0, 1}})
	b := a.Clone()
	b.Union(2, 3)
	if a.Same(2, 3) {
		t.Error("clone mutation leaked into original")
	}
	if !a.Subset(b) || b.Subset(a) {
		t.Error("clone subset relation wrong")
	}
}

func TestKeyCanonical(t *testing.T) {
	a := NewFromPairs(8, []Pair{{0, 3}, {3, 5}})
	b := NewFromPairs(8, []Pair{{3, 5}, {5, 0}})
	if a.Key() != b.Key() {
		t.Error("equal partitions have different keys")
	}
	c := NewFromPairs(8, []Pair{{0, 3}})
	if a.Key() == c.Key() {
		t.Error("different partitions share a key")
	}
}

func TestClasses(t *testing.T) {
	p := NewFromPairs(6, []Pair{{4, 5}, {0, 2}})
	nc := p.NontrivialClasses()
	if len(nc) != 2 {
		t.Fatalf("nontrivial classes = %d, want 2", len(nc))
	}
	if nc[0][0] != 0 || nc[0][1] != 2 || nc[1][0] != 4 || nc[1][1] != 5 {
		t.Errorf("classes wrong: %v", nc)
	}
	all := p.Classes()
	if len(all) != 4 {
		t.Errorf("total classes = %d, want 4", len(all))
	}
}

// Property: Key equality coincides with Equal on random partitions.
func TestKeyEqualsEqualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gen := func() *Partition {
		p := New(12)
		for k := 0; k < rng.Intn(8); k++ {
			p.Union(db.Const(rng.Intn(12)), db.Const(rng.Intn(12)))
		}
		return p
	}
	for trial := 0; trial < 200; trial++ {
		a, b := gen(), gen()
		if (a.Key() == b.Key()) != a.Equal(b) {
			t.Fatalf("Key/Equal mismatch:\n a=%v\n b=%v", a, b)
		}
	}
}

// Property: union is order-insensitive — any permutation of the same
// pair set yields the same partition.
func TestUnionOrderInsensitive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var pairs []Pair
		for k := 0; k < 10; k++ {
			pairs = append(pairs, MakePair(db.Const(rng.Intn(15)), db.Const(rng.Intn(15))))
		}
		a := NewFromPairs(15, pairs)
		shuffled := append([]Pair(nil), pairs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b := NewFromPairs(15, shuffled)
		return a.Equal(b) && a.Key() == b.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Pairs() of NewFromPairs(ps) always contains ps (restricted to
// non-reflexive pairs), and the relation is transitive.
func TestClosureProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var pairs []Pair
		for k := 0; k < 8; k++ {
			pairs = append(pairs, MakePair(db.Const(rng.Intn(10)), db.Const(rng.Intn(10))))
		}
		p := NewFromPairs(10, pairs)
		for _, pr := range pairs {
			if pr.A != pr.B && !p.Same(pr.A, pr.B) {
				return false
			}
		}
		// transitivity via rep agreement
		for i := 0; i < 10; i++ {
			for j := 0; j < 10; j++ {
				if p.Same(db.Const(i), db.Const(j)) != (p.Rep(db.Const(i)) == p.Rep(db.Const(j))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormat(t *testing.T) {
	in := db.NewInterner()
	a, b, c := in.Intern("a1"), in.Intern("a2"), in.Intern("a3")
	p := New(3)
	p.Union(a, b)
	_ = c
	if got := p.Format(in); got != "{a1 a2}" {
		t.Errorf("Format = %q", got)
	}
	if got := New(3).Format(in); got != "{}" {
		t.Errorf("identity Format = %q", got)
	}
}
