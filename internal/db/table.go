package db

import "slices"

// Table holds the extension of one relation: a duplicate-free list of
// tuples in insertion order, a hash set over those tuples for
// deduplication, and lazily built per-column indexes. Every structure
// is a flat slice, so building or deriving a table allocates a constant
// number of objects however many tuples and distinct constants it
// holds.
type Table struct {
	rel    *Relation
	tuples [][]Const
	// slots is an open-addressing (linear probing) hash set over
	// tuples: a slot holds a tuple position plus one, 0 marks it empty.
	// Its length is a power of two at least twice the tuple count.
	// Probes compare the candidate tuple element-wise, so a hash
	// collision never merges two distinct tuples.
	slots []int32
	// cols[i] indexes column i once built. Inserts keep built indexes
	// up to date instead of invalidating them.
	cols []colIndex
	// frozen tables reject inserts; see Database.Freeze.
	frozen bool
}

// colIndex is a dense column index over the column's own value range
// [lo, lo+len(off)-2]: the positions of the tuples holding value v are
// pos[off[v-lo]:off[v-lo+1]], in ascending order, so a lookup is two
// array loads. A value outside the range has no tuples.
type colIndex struct {
	built bool
	lo    Const
	off   []int32
	pos   []int32
}

// newTable returns an empty table for rel sized for about n tuples.
func newTable(rel *Relation, n int) *Table {
	t := &Table{rel: rel, tuples: make([][]Const, 0, n)}
	t.slots = make([]int32, slotsFor(n))
	return t
}

// slotsFor returns the hash-set size for n tuples: the smallest power
// of two of at least 2n, and at least 8.
func slotsFor(n int) int {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	return size
}

// Relation returns the table's relation symbol.
func (t *Table) Relation() *Relation { return t.rel }

// Len returns the number of tuples.
func (t *Table) Len() int { return len(t.tuples) }

// Tuples returns all tuples in insertion order. The returned slice and
// its elements are shared; callers must not modify them.
func (t *Table) Tuples() [][]Const { return t.tuples }

// hashTuple mixes the components of a tuple into a 64-bit hash.
func hashTuple(tup []Const) uint64 {
	h := uint64(len(tup))
	for _, c := range tup {
		h = (h ^ uint64(uint32(c))) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

// probe returns the slot holding tup, or the empty slot where it would
// go, and whether tup is present.
func (t *Table) probe(tup []Const) (int, bool) {
	mask := len(t.slots) - 1
	for i := int(hashTuple(tup)) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return i, false
		}
		if slices.Equal(t.tuples[s-1], tup) {
			return i, true
		}
	}
}

// grow doubles the hash set and re-inserts every tuple.
func (t *Table) grow() {
	t.slots = make([]int32, slotsFor(len(t.tuples)+1))
	mask := len(t.slots) - 1
	for pos, tup := range t.tuples {
		i := int(hashTuple(tup)) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(pos + 1)
	}
}

// insert appends args unless an equal tuple is present, reporting
// whether it was added. The table keeps args itself, not a copy.
func (t *Table) insert(args []Const) bool {
	if t.frozen {
		panic("db: insert into frozen table " + t.rel.Name)
	}
	if 2*(len(t.tuples)+1) > len(t.slots) {
		t.grow()
	}
	i, dup := t.probe(args)
	if dup {
		return false
	}
	pos := len(t.tuples)
	t.slots[i] = int32(pos + 1)
	t.tuples = append(t.tuples, args)
	for c := range t.cols {
		if ix := &t.cols[c]; ix.built {
			ix.add(args[c], int32(pos))
		}
	}
	return true
}

// add records that the tuple at position p, the largest so far, holds
// v, widening the value range when v lies outside it. p goes at the
// end of v's run, so every run stays in ascending order.
func (ix *colIndex) add(v Const, p int32) {
	switch hi := ix.lo + Const(len(ix.off)) - 2; {
	case len(ix.off) == 0:
		ix.lo, ix.off = v, make([]int32, 2)
	case v < ix.lo:
		// The new runs all start at 0, before the old first run.
		off := make([]int32, int(ix.lo-v)+len(ix.off))
		copy(off[ix.lo-v:], ix.off)
		ix.lo, ix.off = v, off
	case v > hi:
		// The new runs all start at the end of the positions.
		n := ix.off[len(ix.off)-1]
		for ; hi < v; hi++ {
			ix.off = append(ix.off, n)
		}
	}
	i := int(v - ix.lo)
	ix.pos = slices.Insert(ix.pos, int(ix.off[i+1]), p)
	for j := i + 1; j < len(ix.off); j++ {
		ix.off[j]++
	}
}

func (t *Table) contains(args []Const) bool {
	_, ok := t.probe(args)
	return ok
}

// Position returns the position of the tuple equal to tup, or -1 when
// the table holds no such tuple.
func (t *Table) Position(tup []Const) int {
	if len(tup) != t.rel.Arity() {
		return -1
	}
	i, ok := t.probe(tup)
	if !ok {
		return -1
	}
	return int(t.slots[i]) - 1
}

// Lookup returns the positions of the tuples whose column col holds v,
// in ascending order, building the column's index on first use. The
// slice is shared with the table; callers must not modify it.
func (t *Table) Lookup(col int, v Const) []int32 {
	ix := t.index(col)
	i := int(v) - int(ix.lo)
	if i < 0 || i >= len(ix.off)-1 {
		return nil
	}
	lo, hi := ix.off[i], ix.off[i+1]
	return ix.pos[lo:hi:hi]
}

// index returns column col's index, building it if necessary.
func (t *Table) index(col int) *colIndex {
	if t.cols == nil || !t.cols[col].built {
		t.build(col, col+1)
	}
	return &t.cols[col]
}

// build builds the missing indexes of columns [from, to), all sharing
// one offsets array and one positions array. Each column is a counting
// sort over its own value range: the offsets first count every value,
// then hold each run's end, and a backward pass places every position
// at its run's end and decrements it, leaving each run's start and the
// positions of a run ascending. No comparator and no cursor array.
func (t *Table) build(from, to int) {
	if t.cols == nil {
		t.cols = make([]colIndex, t.rel.Arity())
	}
	n := len(t.tuples)
	if n == 0 {
		for col := from; col < to; col++ {
			t.cols[col].built = true
		}
		return
	}
	tuples := t.tuples
	// widths[col-from] is the offsets length of a column to build, one
	// more than the number of values in its range; 0 for a built one.
	var buf [8]int
	widths := buf[:0]
	noff, npos := 0, 0
	for col := from; col < to; col++ {
		w := 0
		if ix := &t.cols[col]; !ix.built {
			lo, hi := tuples[0][col], tuples[0][col]
			for _, tup := range tuples[1:] {
				lo, hi = min(lo, tup[col]), max(hi, tup[col])
			}
			ix.lo, w = lo, int(hi-lo)+2
			npos += n
		}
		widths = append(widths, w)
		noff += w
	}
	off := make([]int32, noff)
	pos := make([]int32, npos)
	for col := from; col < to; col++ {
		ix := &t.cols[col]
		if ix.built {
			continue
		}
		m := widths[col-from]
		co, cp := off[:m:m], pos[:n:n]
		off, pos = off[m:], pos[n:]
		for _, tup := range tuples {
			co[tup[col]-ix.lo]++
		}
		for i := 1; i < m; i++ {
			co[i] += co[i-1]
		}
		for p := n - 1; p >= 0; p-- {
			i := tuples[p][col] - ix.lo
			co[i]--
			cp[co[i]] = int32(p)
		}
		ix.built, ix.off, ix.pos = true, co, cp
	}
}

func (t *Table) freeze() {
	// Already-frozen tables must not be written again: a frozen parent
	// shares tables by reference into many derived databases, and
	// freezing those derived databases happens on different search
	// workers. The first freeze always runs in the goroutine that built
	// the table, before the database is shared (the task channel then
	// orders this write before any reader), so the flag check is safe.
	if t.frozen {
		return
	}
	t.build(0, t.rel.Arity())
	t.frozen = true
}

// indexed reports whether every column index is built, as in every
// table of a frozen database.
func (t *Table) indexed() bool {
	if t.cols == nil {
		return false
	}
	for i := range t.cols {
		if !t.cols[i].built {
			return false
		}
	}
	return true
}

// RowsHolding returns the ascending positions of the tuples holding at
// least one of cs, read from the column indexes (built on first use),
// so it costs in proportion to the rows found, not to the table. cs may
// hold duplicates, NoConst and ids outside every column's range. The
// slice may be shared with an index; callers must not modify it.
func (t *Table) RowsHolding(cs []Const) []int32 {
	var rows []int32
	sources := 0
	for col := 0; col < t.rel.Arity(); col++ {
		for _, c := range cs {
			if l := t.Lookup(col, c); len(l) > 0 {
				if sources == 0 {
					rows = l
				} else {
					rows = append(rows, l...)
				}
				sources++
			}
		}
	}
	if sources > 1 {
		slices.Sort(rows)
		rows = slices.Compact(rows)
	}
	return rows
}

// rowsHolding is RowsHolding for a derivation: from the indexes when
// they are all built, otherwise in one pass over the tuples with set's
// membership test, so it never builds an index the derived table
// would not share.
func (t *Table) rowsHolding(set *constSet) []int32 {
	if len(set.list) == 0 {
		return nil
	}
	if t.indexed() {
		return t.RowsHolding(set.list)
	}
	var rows []int32
	for i, tup := range t.tuples {
		for _, c := range tup {
			if set.has(c) {
				rows = append(rows, int32(i))
				break
			}
		}
	}
	return rows
}

// derive returns a table holding t's tuples in order, except that the
// tuple at each position of rows (ascending) is replaced by its image
// under rep when remap is set and dropped otherwise, followed by the
// image under rep of every tuple of extra; a nil rep is the identity.
// Kept tuples are shared by reference, duplicates the images create are
// suppressed, and the images share one backing array.
func (t *Table) derive(rows []int32, remap bool, extra [][]Const, rep func(Const) Const) *Table {
	arity := t.rel.Arity()
	images := len(extra)
	if remap {
		images += len(rows)
	}
	arena := make([]Const, images*arity)
	nt := newTable(t.rel, len(t.tuples)-len(rows)+images)
	add := func(tup []Const) {
		m := arena[:arity:arity]
		for i, c := range tup {
			if rep != nil {
				c = rep(c)
			}
			m[i] = c
		}
		if nt.insert(m) {
			arena = arena[arity:]
		}
	}
	for i, tup := range t.tuples {
		if len(rows) > 0 && int(rows[0]) == i {
			rows = rows[1:]
			if remap {
				add(tup)
			}
			continue
		}
		nt.insert(tup)
	}
	for _, tup := range extra {
		add(tup)
	}
	return nt
}
