// Package eqrel implements equivalence relations over interned database
// constants, the objects LACE calls solutions. A Partition is a
// union-find structure over the dense ids 0..n-1 with a deterministic
// representative function rep_E (the minimum id of each class), pair
// enumeration, containment tests, and canonical keys used to deduplicate
// search states.
package eqrel

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/db"
)

// Pair is an unordered pair of constants, stored with A <= B.
type Pair struct {
	A, B db.Const
}

// MakePair normalises (a,b) so that A <= B.
func MakePair(a, b db.Const) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

func (p Pair) String() string { return fmt.Sprintf("(%d,%d)", p.A, p.B) }

// Partition is an equivalence relation over db.Const ids 0..n-1. The zero
// value is not usable; create one with New. The representative of a class
// is its minimum id, so rep is deterministic and stable under Clone.
type Partition struct {
	parent []db.Const
	size   []int32
	min    []db.Const // min id of the class, valid at roots
	n      int
	// nontrivial counts members of classes with >= 2 elements.
	merged int
}

// New returns the identity partition over ids 0..n-1.
func New(n int) *Partition {
	p := &Partition{
		parent: make([]db.Const, n),
		size:   make([]int32, n),
		min:    make([]db.Const, n),
		n:      n,
	}
	for i := 0; i < n; i++ {
		p.parent[i] = db.Const(i)
		p.size[i] = 1
		p.min[i] = db.Const(i)
	}
	return p
}

// NewFromPairs returns the least equivalence relation over 0..n-1
// containing the given pairs (the paper's EqRel(S, D)).
func NewFromPairs(n int, pairs []Pair) *Partition {
	p := New(n)
	for _, pr := range pairs {
		p.Union(pr.A, pr.B)
	}
	return p
}

// N returns the domain size.
func (p *Partition) N() int { return p.n }

// find returns the root of c with path compression. Compression writes
// are guarded so they only happen when they change something: on a
// flattened partition (see Flatten) find is a pure read, which is what
// makes read-only concurrent use of flattened partitions race-free.
func (p *Partition) find(c db.Const) db.Const {
	for p.parent[c] != c {
		next := p.parent[p.parent[c]]
		if p.parent[c] != next {
			p.parent[c] = next
		}
		c = next
	}
	return c
}

// Flatten fully compresses every path so each element points directly
// at its root. Afterwards the read-only methods (Rep, Same, Key,
// Subset, Equal, Pairs, Classes, ...) perform no writes and are safe to
// call from any number of goroutines concurrently; the parallel search
// flattens a partition once before handing it to workers. Mutating
// methods (Union, Add) un-flatten the receiver and require exclusive
// access again. Returns the receiver for chaining.
func (p *Partition) Flatten() *Partition {
	for i := 0; i < p.n; i++ {
		r := p.find(db.Const(i))
		if p.parent[i] != r {
			p.parent[i] = r
		}
	}
	return p
}

// Rep returns the representative rep_E(c): the minimum id in c's class.
func (p *Partition) Rep(c db.Const) db.Const {
	return p.min[p.find(c)]
}

// Same reports whether a and b are in the same class.
func (p *Partition) Same(a, b db.Const) bool {
	return p.find(a) == p.find(b)
}

// Union merges the classes of a and b, reporting whether anything
// changed.
func (p *Partition) Union(a, b db.Const) bool {
	ra, rb := p.find(a), p.find(b)
	if ra == rb {
		return false
	}
	if p.size[ra] < p.size[rb] {
		ra, rb = rb, ra
	}
	// Track how many constants sit in nontrivial classes.
	switch {
	case p.size[ra] == 1 && p.size[rb] == 1:
		p.merged += 2
	case p.size[rb] == 1:
		p.merged++
	case p.size[ra] == 1:
		p.merged++
	}
	p.parent[rb] = ra
	p.size[ra] += p.size[rb]
	if p.min[rb] < p.min[ra] {
		p.min[ra] = p.min[rb]
	}
	return true
}

// Add merges the classes of the pair's endpoints.
func (p *Partition) Add(pr Pair) bool { return p.Union(pr.A, pr.B) }

// AddAll merges all pairs, reporting whether anything changed.
func (p *Partition) AddAll(pairs []Pair) bool {
	changed := false
	for _, pr := range pairs {
		if p.Add(pr) {
			changed = true
		}
	}
	return changed
}

// IsIdentity reports whether every class is a singleton.
func (p *Partition) IsIdentity() bool { return p.merged == 0 }

// MergedCount returns the number of constants in nontrivial classes.
func (p *Partition) MergedCount() int { return p.merged }

// ClassSize returns the number of elements in c's class.
func (p *Partition) ClassSize(c db.Const) int { return int(p.size[p.find(c)]) }

// Clone returns an independent copy.
func (p *Partition) Clone() *Partition {
	return &Partition{
		parent: append([]db.Const(nil), p.parent...),
		size:   append([]int32(nil), p.size...),
		min:    append([]db.Const(nil), p.min...),
		n:      p.n,
		merged: p.merged,
	}
}

// classes groups member ids by root; only classes with at least minSize
// members are returned, each sorted ascending, ordered by representative.
// classes lists the classes of at least minSize members in one pass by
// ascending id: a class is opened at its first member, its minimum, so
// the classes come out ordered by representative and their members
// ascending, with no sort.
func (p *Partition) classes(minSize int) [][]db.Const {
	out := make([][]db.Const, 0)
	slot := make([]int32, p.n) // by root: 1 + its index in out, 0 until opened
	for i := 0; i < p.n; i++ {
		c := db.Const(i)
		r := p.find(c)
		size := int(p.size[r])
		if size < minSize {
			continue
		}
		if slot[r] == 0 {
			out = append(out, make([]db.Const, 0, size))
			slot[r] = int32(len(out))
		}
		k := slot[r] - 1
		out[k] = append(out[k], c)
	}
	return out
}

// Classes returns every class (including singletons) sorted by
// representative, members ascending.
func (p *Partition) Classes() [][]db.Const { return p.classes(1) }

// NontrivialClasses returns the classes with at least two members.
func (p *Partition) NontrivialClasses() [][]db.Const { return p.classes(2) }

// Pairs returns every nontrivial unordered pair (a,b) with a < b and
// a ~ b, sorted lexicographically. This is the merge set of a solution.
func (p *Partition) Pairs() []Pair {
	var out []Pair
	for _, cls := range p.classes(2) {
		for i := 0; i < len(cls); i++ {
			for j := i + 1; j < len(cls); j++ {
				out = append(out, Pair{A: cls[i], B: cls[j]})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// PairCount returns the number of nontrivial unordered pairs, i.e.
// sum over classes of k*(k-1)/2.
func (p *Partition) PairCount() int {
	total := 0
	for i := 0; i < p.n; i++ {
		c := db.Const(i)
		if p.find(c) == c && p.size[c] >= 2 {
			k := int(p.size[c])
			total += k * (k - 1) / 2
		}
	}
	return total
}

// Subset reports whether p, viewed as a set of pairs, is contained in o.
// Both partitions must have the same domain size.
func (p *Partition) Subset(o *Partition) bool {
	if p.n != o.n {
		return false
	}
	// Every class of p lies inside one class of o iff each element
	// shares its o-class with its p-representative.
	for i := 0; i < p.n; i++ {
		c := db.Const(i)
		if r := p.Rep(c); r != c && !o.Same(c, r) {
			return false
		}
	}
	return true
}

// Equal reports whether p and o are the same equivalence relation.
func (p *Partition) Equal(o *Partition) bool {
	return p.n == o.n && p.merged == o.merged && p.Subset(o) && o.Subset(p)
}

// ProperSubset reports p ⊊ o.
func (p *Partition) ProperSubset(o *Partition) bool {
	return p.Subset(o) && !o.Subset(p)
}

// Key returns a canonical string key identifying the partition exactly;
// two partitions over the same domain have equal keys iff they are
// equal. The encoding is the shared db.AppendInt varint form; keys are
// opaque and only compared for equality.
func (p *Partition) Key() string {
	buf := make([]byte, 0, p.n*2)
	for i := 0; i < p.n; i++ {
		buf = db.AppendInt(buf, int(p.Rep(db.Const(i))))
	}
	return string(buf)
}

// String renders the nontrivial classes using the interner's names, e.g.
// "{a1 a2 a3} {c2 c3}".
func (p *Partition) String() string {
	var b strings.Builder
	for i, cls := range p.classes(2) {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('{')
		for j, c := range cls {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", c)
		}
		b.WriteByte('}')
	}
	if b.Len() == 0 {
		return "{}"
	}
	return b.String()
}

// Format renders the nontrivial classes with constant names from the
// interner.
func (p *Partition) Format(in *db.Interner) string {
	var b strings.Builder
	for i, cls := range p.classes(2) {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('{')
		for j, c := range cls {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(in.Name(c))
		}
		b.WriteByte('}')
	}
	if b.Len() == 0 {
		return "{}"
	}
	return b.String()
}
