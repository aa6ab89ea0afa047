package db

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Fact is a ground relational atom R(c1,...,ck).
type Fact struct {
	Rel  string
	Args []Const
}

// Database is a finite set of facts over a schema, with all constants
// interned in a shared Interner. Databases that are compared or merged
// must share both schema and interner.
//
// Concurrency: a Database is not safe for concurrent use while it is
// being populated, and even read paths may mutate it (Lookup builds
// column indexes lazily). Freeze converts it into a value that is safe
// for any number of concurrent readers.
type Database struct {
	schema   *Schema
	interner *Interner
	tables   map[string]*Table
	nfacts   int
	frozen   bool

	// hashXor and hashSum accumulate the content fingerprint: the XOR
	// and the sum of the per-fact hashes (FNV-1a over relation and
	// constant names), maintained incrementally by Insert and adjusted
	// arithmetically by Apply. hashOK marks the accumulators valid;
	// databases assembled outside the Insert path (induced databases
	// built by MapFrom) clear it and Fingerprint falls back to a full
	// scan. See mutate.go.
	hashXor, hashSum uint64
	hashOK           bool
}

// New returns an empty database over the schema using the interner. A nil
// interner allocates a fresh one.
func New(schema *Schema, interner *Interner) *Database {
	if interner == nil {
		interner = NewInterner()
	}
	return &Database{
		schema:   schema,
		interner: interner,
		tables:   make(map[string]*Table),
		hashOK:   true,
	}
}

// Schema returns the database schema.
func (d *Database) Schema() *Schema { return d.schema }

// Interner returns the shared constant interner.
func (d *Database) Interner() *Interner { return d.interner }

// NumFacts returns the total number of (distinct) facts.
func (d *Database) NumFacts() int { return d.nfacts }

// Table returns the table for a relation name, or nil if the relation has
// no facts yet (or is undeclared).
func (d *Database) Table(rel string) *Table { return d.tables[rel] }

// Tuples returns the tuples of the named relation (nil if empty).
func (d *Database) Tuples(rel string) [][]Const {
	if t := d.tables[rel]; t != nil {
		return t.tuples
	}
	return nil
}

// Freeze makes the database immutable and safe for concurrent readers:
// every column index is built eagerly (so Lookup never writes
// again), subsequent inserts fail, and its interner is frozen too (a
// new name panics; see Interner.Freeze). This is the invariant MapFrom
// relies on when induced databases are shared across search workers —
// untouched tables are shared by reference into the derived database,
// which is sound only because neither the tuples nor the indexes of a
// frozen table ever change. Freeze is idempotent. Tables shared out of
// a frozen parent stay frozen even inside an unfrozen derived database.
func (d *Database) Freeze() {
	// The early return makes re-freezing a pure read: epoch overlays
	// (Apply) freeze each database before sharing it, after which any
	// number of goroutines may call Freeze concurrently without writing.
	if d.frozen {
		return
	}
	for _, t := range d.tables {
		t.freeze()
	}
	d.interner.Freeze()
	d.frozen = true
}

// Frozen reports whether Freeze has been called.
func (d *Database) Frozen() bool { return d.frozen }

// Insert adds the fact rel(args...) if not already present, reporting
// whether it was added. It returns an error for undeclared relations or
// arity mismatches.
func (d *Database) Insert(rel string, args ...Const) (bool, error) {
	if d.frozen {
		return false, fmt.Errorf("db: insert into frozen database (relation %q)", rel)
	}
	r, ok := d.schema.Relation(rel)
	if !ok {
		return false, fmt.Errorf("db: insert into undeclared relation %q", rel)
	}
	if len(args) != r.Arity() {
		return false, fmt.Errorf("db: %s has arity %d, got %d arguments", rel, r.Arity(), len(args))
	}
	t := d.tables[rel]
	if t == nil {
		t = newTable(r, 0)
		d.tables[rel] = t
	}
	cp := append([]Const(nil), args...)
	if t.insert(cp) {
		d.nfacts++
		if d.hashOK {
			h := d.factHash(rel, cp)
			d.hashXor ^= h
			d.hashSum += h
		}
		return true, nil
	}
	return false, nil
}

// InsertNames interns the given constant names and inserts the fact.
func (d *Database) InsertNames(rel string, names ...string) (bool, error) {
	if d.frozen {
		return false, fmt.Errorf("db: insert into frozen database (relation %q)", rel)
	}
	args := make([]Const, len(names))
	for i, n := range names {
		args[i] = d.interner.Intern(n)
	}
	return d.Insert(rel, args...)
}

// MustInsert inserts and panics on error; for static data in tests.
func (d *Database) MustInsert(rel string, names ...string) {
	if _, err := d.InsertNames(rel, names...); err != nil {
		panic(err)
	}
}

// Contains reports whether the fact rel(args...) is present.
func (d *Database) Contains(rel string, args ...Const) bool {
	t := d.tables[rel]
	return t != nil && len(args) == t.rel.Arity() && t.contains(args)
}

// Facts returns all facts, ordered by relation declaration order then
// insertion order. Slices are fresh copies.
func (d *Database) Facts() []Fact {
	out := make([]Fact, 0, d.nfacts)
	for _, r := range d.schema.Relations() {
		t := d.tables[r.Name]
		if t == nil {
			continue
		}
		for _, tup := range t.tuples {
			out = append(out, Fact{Rel: r.Name, Args: append([]Const(nil), tup...)})
		}
	}
	return out
}

// ActiveDomain returns the sorted set of constants occurring in the
// database (the paper's dom(D)).
func (d *Database) ActiveDomain() []Const {
	seen := make(map[Const]bool)
	for _, t := range d.tables {
		for _, tup := range t.tuples {
			for _, c := range tup {
				seen[c] = true
			}
		}
	}
	out := make([]Const, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Map returns the database obtained by replacing every constant c with
// rep(c). This is the induced database D_E of the paper when rep is the
// representative function of an equivalence relation E. Duplicate tuples
// that arise from the replacement are suppressed. Tables that rep leaves
// unchanged are shared with the receiver, so the result must be treated
// as immutable (which induced databases are).
func (d *Database) Map(rep func(Const) Const) *Database {
	var dirty []Const
	moved := make(map[Const]bool)
	for _, t := range d.tables {
		for _, tup := range t.tuples {
			for _, c := range tup {
				if _, done := moved[c]; done {
					continue
				}
				m := rep(c) != c
				moved[c] = m
				if m {
					dirty = append(dirty, c)
				}
			}
		}
	}
	return MapFrom(d, dirty, rep)
}

// MapFrom computes parent.Map(rep) incrementally. dirty must list every
// constant of parent that rep moves (rep(c) != c); a superset is fine.
// Tables containing no dirty constant are shared with parent wholesale
// (tuples, hash set and any built indexes); in rebuilt tables, tuples
// containing no dirty constant are copied by reference. Deriving the
// induced database D_{E∪{α}} from D_E therefore only pays for the
// relations the newly merged classes occur in. Both parent and result
// must be treated as immutable afterwards. The result is Equal to
// parent.Map(rep), which differential tests assert on randomized
// databases and partitions.
func MapFrom(parent *Database, dirty []Const, rep func(Const) Const) *Database {
	nd := parent.derived()
	set := constSet{list: dirty}
	for name, t := range parent.tables {
		rows := t.rowsHolding(&set)
		if len(rows) > 0 {
			t = t.derive(rows, true, nil, rep)
		}
		nd.tables[name] = t
		nd.nfacts += t.Len()
	}
	return nd
}

// Rebase derives base.Map(rep) from parent, the image of an older
// database under an older representative function, over the same
// schema: every row of parent holding a constant of stale, or listed by
// position in drop, is dropped, and the image under rep of every tuple
// of extra (keyed by relation) is added, duplicates suppressed. Tables
// with none of these are shared with parent wholesale; the result reads
// base's interner. The caller guarantees what makes the result
// base.Map(rep): every row of parent that is kept is the image under
// rep of a tuple of base, and every tuple of base whose image is not
// such a row is in extra. Both parent and result must be treated as
// immutable afterwards.
func Rebase(base, parent *Database, stale []Const, drop map[string][]int32, extra map[string][][]Const, rep func(Const) Const) *Database {
	nd := base.derived()
	set := constSet{list: stale}
	for name, t := range parent.tables {
		rows := t.rowsHolding(&set)
		if len(drop[name]) > 0 {
			rows = append(slices.Clone(rows), drop[name]...)
			slices.Sort(rows)
			rows = slices.Compact(rows)
		}
		if len(rows) > 0 || len(extra[name]) > 0 {
			t = t.derive(rows, false, extra[name], rep)
		}
		nd.tables[name] = t
		nd.nfacts += t.Len()
	}
	for name, tuples := range extra {
		if parent.tables[name] != nil || len(tuples) == 0 {
			continue
		}
		r, _ := parent.schema.Relation(name)
		t := newTable(r, 0).derive(nil, false, tuples, rep)
		nd.tables[name] = t
		nd.nfacts += t.Len()
	}
	return nd
}

// derived returns an empty database for an induced database derived
// from d: same schema and interner, no tables yet. Induced databases
// bypass Insert, so their hash accumulators are never maintained;
// nobody fingerprints them, but they are marked invalid so a stray
// Fingerprint call falls back to the full scan.
func (d *Database) derived() *Database {
	nd := New(d.schema, d.interner)
	nd.hashOK = false
	return nd
}

// constSet is a membership test over a constant list: linear probing
// for a few constants, a dense bitset indexed by constant id (built on
// first use) beyond that.
type constSet struct {
	list []Const
	bits []uint64
}

func (s *constSet) has(c Const) bool {
	if len(s.list) <= 8 {
		for _, x := range s.list {
			if c == x {
				return true
			}
		}
		return false
	}
	if s.bits == nil {
		hi := Const(0)
		for _, x := range s.list {
			hi = max(hi, x)
		}
		s.bits = make([]uint64, hi/64+1)
		for _, x := range s.list {
			if x >= 0 {
				s.bits[x/64] |= 1 << (x % 64)
			}
		}
	}
	return c >= 0 && int(c/64) < len(s.bits) && s.bits[c/64]&(1<<(c%64)) != 0
}

// Equal reports whether two databases over the same schema and interner
// contain exactly the same facts.
func (d *Database) Equal(o *Database) bool {
	if d.nfacts != o.nfacts {
		return false
	}
	for name, t := range d.tables {
		ot := o.tables[name]
		if ot == nil {
			if t.Len() != 0 {
				return false
			}
			continue
		}
		if t.Len() != ot.Len() {
			return false
		}
		for _, tup := range t.tuples {
			if !ot.contains(tup) {
				return false
			}
		}
	}
	return true
}

// String renders the database as a fact file (sorted, one fact per line).
func (d *Database) String() string {
	var b strings.Builder
	for _, r := range d.schema.Relations() {
		t := d.tables[r.Name]
		if t == nil {
			continue
		}
		lines := make([]string, 0, t.Len())
		for _, tup := range t.tuples {
			parts := make([]string, len(tup))
			for i, c := range tup {
				parts[i] = quoteIfNeeded(d.interner.Name(c))
			}
			lines = append(lines, r.Name+"("+strings.Join(parts, ", ")+").")
		}
		sort.Strings(lines)
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
