package eqrel

// stitch_test.go pins the merge-under-partition invariants the sharded
// engine's stitching loop relies on: Flatten is idempotent, unioning the
// pair sets of disjoint partitions commutes with building the joint
// partition directly, and representative election is deterministic
// (minimum id) regardless of union order.

import (
	"math/rand"
	"testing"

	"repro/internal/db"
)

func randomPairs(rng *rand.Rand, n, k int) []Pair {
	out := make([]Pair, k)
	for i := range out {
		a, b := rng.Intn(n), rng.Intn(n)
		for a == b {
			b = rng.Intn(n)
		}
		out[i] = MakePair(db.Const(a), db.Const(b))
	}
	return out
}

func TestFlattenIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(40)
		p := NewFromPairs(n, randomPairs(rng, n, rng.Intn(2*n)))
		key := p.Key()
		p.Flatten()
		if p.Key() != key {
			t.Fatal("Flatten changed the relation")
		}
		p.Flatten() // second flatten must be a no-op too
		if p.Key() != key {
			t.Fatal("Flatten is not idempotent")
		}
		// On a flattened partition every element's class is unchanged and
		// Rep is stable under repeated queries.
		for i := 0; i < n; i++ {
			c := db.Const(i)
			if p.Rep(c) != p.Rep(c) {
				t.Fatal("Rep unstable after Flatten")
			}
		}
	}
}

// TestUnionAcrossDisjointPartitions: merging the pair sets of two
// partitions — the stitching loop's "G := G ∪ shard merges" step —
// yields exactly the join, however the pairs are interleaved.
func TestUnionAcrossDisjointPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 60
	for trial := 0; trial < 20; trial++ {
		// a uses only ids [0,30), b only [30,60): disjoint supports.
		a := NewFromPairs(n, randomPairs(rng, 30, 10))
		bp := make([]Pair, 0, 10)
		for _, pr := range randomPairs(rng, 30, 10) {
			bp = append(bp, Pair{A: pr.A + 30, B: pr.B + 30})
		}
		b := NewFromPairs(n, bp)

		joint := NewFromPairs(n, append(a.Pairs(), b.Pairs()...))
		stitched := a.Clone()
		if !stitched.AddAll(b.Pairs()) && len(b.Pairs()) > 0 {
			t.Fatal("AddAll reported no change for disjoint pairs")
		}
		if !stitched.Equal(joint) {
			t.Fatalf("stitched %v != joint %v", stitched, joint)
		}
		// Disjoint supports: each side survives unchanged in the join.
		if !a.Subset(stitched) || !b.Subset(stitched) {
			t.Fatal("inputs not contained in the stitched partition")
		}
		if stitched.PairCount() != a.PairCount()+b.PairCount() {
			t.Fatalf("pair count %d != %d + %d",
				stitched.PairCount(), a.PairCount(), b.PairCount())
		}
	}
}

// TestDeterministicRepresentatives: the representative of a class is its
// minimum id no matter in which order the unions arrived, so canonical
// keys agree across shuffled solve orders.
func TestDeterministicRepresentatives(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 40
	base := randomPairs(rng, n, 50)
	ref := NewFromPairs(n, base)
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]Pair(nil), base...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		p := NewFromPairs(n, shuffled)
		if p.Key() != ref.Key() {
			t.Fatal("canonical key depends on union order")
		}
		for _, cls := range p.NontrivialClasses() {
			min := cls[0]
			for _, c := range cls {
				if c < min {
					min = c
				}
				if p.Rep(c) != cls[0] {
					t.Fatalf("Rep(%d) = %d, want class head %d", c, p.Rep(c), cls[0])
				}
			}
			if min != cls[0] {
				t.Fatal("class head is not the minimum id")
			}
			if p.ClassSize(cls[0]) != len(cls) {
				t.Fatalf("ClassSize = %d, want %d", p.ClassSize(cls[0]), len(cls))
			}
		}
	}
}
