package db

// mutate.go is the streaming-mutation substrate: frozen databases grow
// copy-on-write epoch successors. Apply builds the successor of a
// frozen parent database under a batch of fact insertions and
// retractions without touching the parent. Untouched relations are
// shared by reference (sound because both sides are frozen); each
// touched relation is derived from the parent's table by the same
// primitive as every induced database (Table.derive): the retracted
// rows, found through the parent table's hash set, are dropped, and the
// inserts are appended in batch order. A batch naming only known
// constants shares the parent's interner, which Freeze has made reject
// new names; one naming a new constant clones it, and Interner.Clone
// preserves ids. Either way constant ids are stable along an epoch
// lineage: specifications, equivalence pairs and a carried lattice top
// keyed by constant id stay valid across epochs.
//
// The content fingerprint makes epoch identity observable in O(1): the
// XOR and the sum of per-fact FNV-1a hashes over rendered names are
// maintained by Insert, copied by Clone and adjusted arithmetically by
// Apply (parent minus the dropped rows plus the derived table's new
// tail), so two databases with the same facts — in any insertion order,
// behind any interner — render the same fingerprint, and Apply never
// rescans the instance.

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// FactSpec names one fact by relation and constant names — the
// schema-agnostic form mutations arrive in (HTTP bodies, audit
// records, test generators).
type FactSpec struct {
	Rel  string   `json:"rel"`
	Args []string `json:"args"`
}

// String renders the fact in fact-file syntax.
func (f FactSpec) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = quoteIfNeeded(a)
	}
	return f.Rel + "(" + strings.Join(parts, ", ") + ")"
}

// Apply builds the epoch successor of parent under one batch: retract
// first, then insert. The parent is frozen (idempotent) and never
// modified; the result is a fresh frozen database sharing the parent's
// schema, every untouched table by reference, and the parent's interner
// when every inserted name is already interned, a clone of it (ids
// preserved, new names appended) otherwise. A touched table holds the
// parent's tuples in order minus the retracted ones, then the inserts
// in batch order. Retracting an absent fact and inserting a present one
// are counted-zero no-ops; the returned counts are the facts actually
// removed and actually added. A validation error (undeclared relation,
// arity mismatch) rejects the whole batch: no partial application.
func Apply(parent *Database, insert, retract []FactSpec) (nd *Database, inserted, retracted int, err error) {
	for _, f := range retract {
		if err := parent.validateSpec(f); err != nil {
			return nil, 0, 0, fmt.Errorf("db: retract %s: %w", f, err)
		}
	}
	for _, f := range insert {
		if err := parent.validateSpec(f); err != nil {
			return nil, 0, 0, fmt.Errorf("db: insert %s: %w", f, err)
		}
	}
	parent.Freeze()

	in := parent.interner
known:
	for _, f := range insert {
		for _, n := range f.Args {
			if _, ok := in.Lookup(n); !ok {
				in = in.Clone()
				break known
			}
		}
	}

	// By relation: the parent rows the batch retracts and the tuples it
	// inserts. A retract naming a constant the parent never interned
	// matches no row.
	drop := make(map[string][]int32)
	add := make(map[string][][]Const)
	args := make([]Const, 0, 8)
retracts:
	for _, f := range retract {
		args = args[:0]
		for _, n := range f.Args {
			c, ok := in.Lookup(n)
			if !ok {
				continue retracts
			}
			args = append(args, c)
		}
		if t := parent.tables[f.Rel]; t != nil {
			if p := t.Position(args); p >= 0 {
				drop[f.Rel] = append(drop[f.Rel], int32(p))
			}
		}
	}
	for _, f := range insert {
		tup := make([]Const, len(f.Args))
		for i, n := range f.Args {
			tup[i] = in.Intern(n)
		}
		add[f.Rel] = append(add[f.Rel], tup)
	}

	nd = New(parent.schema, in)
	nd.tables = maps.Clone(parent.tables)
	nd.nfacts = parent.nfacts
	nd.hashXor, nd.hashSum = parent.hashXor, parent.hashSum
	if !parent.hashOK {
		nd.hashXor, nd.hashSum = parent.contentHash()
	}
	for _, r := range parent.schema.Relations() {
		rows, tuples := drop[r.Name], add[r.Name]
		if len(rows) == 0 && len(tuples) == 0 {
			continue
		}
		t := parent.tables[r.Name]
		if t == nil {
			t = newTable(r, 0)
		}
		slices.Sort(rows)
		rows = slices.Compact(rows)
		for _, p := range rows {
			h := nd.factHash(r.Name, t.tuples[p])
			nd.hashXor ^= h
			nd.hashSum -= h
		}
		kept := t.Len() - len(rows)
		nt := t.derive(rows, false, tuples, nil)
		for _, tup := range nt.tuples[kept:] {
			h := nd.factHash(r.Name, tup)
			nd.hashXor ^= h
			nd.hashSum += h
		}
		retracted += len(rows)
		inserted += nt.Len() - kept
		nd.tables[r.Name] = nt
		nd.nfacts += nt.Len() - t.Len()
	}
	nd.Freeze()
	return nd, inserted, retracted, nil
}

// validateSpec checks a FactSpec against the schema.
func (d *Database) validateSpec(f FactSpec) error {
	r, ok := d.schema.Relation(f.Rel)
	if !ok {
		return fmt.Errorf("undeclared relation %q", f.Rel)
	}
	if len(f.Args) != r.Arity() {
		return fmt.Errorf("relation %s has arity %d, got %d arguments", f.Rel, r.Arity(), len(f.Args))
	}
	return nil
}

// Fingerprint returns the database's content hash: 32 hex digits
// combining the XOR and the sum of the per-fact hashes. It depends only
// on the fact set (rendered with constant names), not on insertion
// order or interner layout, and is O(1) on databases built through
// Insert, Clone or Apply.
func (d *Database) Fingerprint() string {
	x, s := d.hashXor, d.hashSum
	if !d.hashOK {
		x, s = d.contentHash()
	}
	return fmt.Sprintf("%016x%016x", x, s)
}

// contentHash computes the accumulator pair by scanning every fact —
// the fallback for databases assembled outside the Insert path. It
// reads only frozen-safe state, so concurrent calls are safe.
func (d *Database) contentHash() (x, s uint64) {
	for name, t := range d.tables {
		for _, tup := range t.tuples {
			h := d.factHash(name, tup)
			x ^= h
			s += h
		}
	}
	return x, s
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// factHash hashes one fact as FNV-1a over the relation name and the
// constant names, NUL-separated, so renamed ids hash identically as
// long as the names match.
func (d *Database) factHash(rel string, args []Const) uint64 {
	h := fnvMix(fnvOffset64, rel)
	for _, c := range args {
		h = fnvMix(h, d.interner.Name(c))
	}
	return h
}

func fnvMix(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	h ^= 0
	h *= fnvPrime64 // NUL separator: "ab"+"c" and "a"+"bc" hash apart
	return h
}
