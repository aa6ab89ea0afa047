// Package db implements the relational substrate of the LACE framework:
// schemas, interned constants, facts, databases with per-column
// indexes, and a parser for fact files.
//
// Databases are in-memory, deterministic (iteration order is insertion
// order, duplicate facts are suppressed) and cheap to project through an
// equivalence relation, which is the central operation of LACE's dynamic
// semantics (the induced database D_E of Section 3 of the paper).
package db

import "fmt"

// Const is an interned constant identifier. Constants are interned into
// dense int32 ids by an Interner so that equivalence relations over the
// active domain can be represented as flat arrays.
type Const int32

// NoConst is the zero value sentinel for "no constant".
const NoConst Const = -1

// Interner maps constant names to dense ids and back. The zero value is
// not usable; create one with NewInterner. Ids are assigned in first-seen
// order starting from 0.
type Interner struct {
	byName map[string]Const
	names  []string
	// frozen interners belong to a frozen database and may be shared
	// along an epoch lineage (see Apply): a new name would grow the id
	// space under every database sharing them, so interning one panics.
	frozen bool
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{byName: make(map[string]Const)}
}

// Intern returns the id for name, assigning a fresh one if needed. It
// panics when a frozen interner would need a fresh id: intern into a
// Clone instead.
func (in *Interner) Intern(name string) Const {
	if id, ok := in.byName[name]; ok {
		return id
	}
	if in.frozen {
		panic(fmt.Sprintf("db: intern of new name %q into a frozen interner (intern into a Clone)", name))
	}
	id := Const(len(in.names))
	in.byName[name] = id
	in.names = append(in.names, name)
	return id
}

// Lookup returns the id for name if it has been interned.
func (in *Interner) Lookup(name string) (Const, bool) {
	id, ok := in.byName[name]
	return id, ok
}

// Name returns the name of an interned constant. It panics on ids that
// were never issued, which always indicates a programming error.
func (in *Interner) Name(c Const) string {
	if c < 0 || int(c) >= len(in.names) {
		panic(fmt.Sprintf("db: Name of uninterned constant id %d", c))
	}
	return in.names[c]
}

// Freeze makes the interner reject new names; looking up and
// re-interning known names stays allowed. Database.Freeze calls it. It
// is idempotent, and a repeated call only reads.
func (in *Interner) Freeze() {
	if !in.frozen {
		in.frozen = true
	}
}

// Frozen reports whether Freeze has been called.
func (in *Interner) Frozen() bool { return in.frozen }

// Size returns the number of interned constants.
func (in *Interner) Size() int { return len(in.names) }

// Clone returns an independent, unfrozen copy of the interner: existing
// names keep their ids, and interning into the clone leaves the
// receiver untouched. A server uses clones to parse ad-hoc queries (which may
// intern fresh query constants) without mutating the interner shared by
// concurrent readers.
func (in *Interner) Clone() *Interner {
	c := &Interner{
		byName: make(map[string]Const, len(in.byName)),
		names:  append([]string(nil), in.names...),
	}
	for n, id := range in.byName {
		c.byName[n] = id
	}
	return c
}

// Names returns the names of all interned constants in id order. The
// returned slice is shared; callers must not modify it.
func (in *Interner) Names() []string { return in.names }
