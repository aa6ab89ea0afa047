package cq

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/db"
)

// constList lists a touched set's constants, the form NewDelta takes.
func constList(set map[db.Const]bool) []db.Const {
	out := make([]db.Const, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	return out
}

// newDeltaScan is the reference NewDelta: it scans every tuple of every
// relation and marks those holding a constant touched accepts.
func newDeltaScan(d *db.Database, touched func(db.Const) bool) *Delta {
	delta := &Delta{marks: make(map[string][]bool), rows: make(map[string][]int32)}
	for _, r := range d.Schema().Relations() {
		t := d.Table(r.Name)
		if t == nil {
			continue
		}
		var m []bool
		var rows []int32
		for ti, tup := range t.Tuples() {
			for _, c := range tup {
				if touched(c) {
					if m == nil {
						m = make([]bool, t.Len())
					}
					m[ti] = true
					rows = append(rows, int32(ti))
					break
				}
			}
		}
		if m != nil {
			delta.marks[r.Name] = m
			delta.rows[r.Name] = rows
		}
	}
	return delta
}

// TestNewDeltaMatchesScan: the index-built delta equals the scan on
// random tables and touched lists, duplicates, NoConst and ids outside
// every column's range included, over frozen and unfrozen databases.
func TestNewDeltaMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 400; trial++ {
		sch := db.NewSchema()
		sch.MustAdd("R", "a", "b")
		sch.MustAdd("S", "k", "v", "w")
		sch.MustAdd("E", "x")
		d := db.New(sch, nil)
		n := 2 + rng.Intn(15)
		name := func() string { return fmt.Sprintf("c%d", rng.Intn(n)) }
		for i := 0; i < rng.Intn(25); i++ {
			d.MustInsert("R", name(), name())
		}
		for i := 0; i < rng.Intn(10); i++ {
			d.MustInsert("S", name(), name(), name())
		}
		if rng.Intn(2) == 0 {
			d.Freeze()
		}
		var touched []db.Const
		for i := 0; i < rng.Intn(12); i++ {
			switch rng.Intn(6) {
			case 0:
				touched = append(touched, db.NoConst)
			case 1:
				touched = append(touched, db.Const(n+rng.Intn(100)))
			default:
				touched = append(touched, db.Const(rng.Intn(n)))
			}
		}
		got := NewDelta(d, touched)
		want := newDeltaScan(d, func(c db.Const) bool { return slices.Contains(touched, c) })
		// Rows touched by position join the same marks and row lists.
		if tbl := d.Table("R"); tbl != nil && rng.Intn(2) == 0 {
			var rows []int32
			for i := 0; i < 1+rng.Intn(3); i++ {
				rows = append(rows, int32(rng.Intn(tbl.Len())))
			}
			got.Touch(d, "R", rows)
			want = newDeltaScan(d, func(c db.Const) bool { return slices.Contains(touched, c) })
			for _, ti := range rows {
				if want.marks["R"] == nil {
					want.marks["R"] = make([]bool, tbl.Len())
				}
				if !want.marks["R"][ti] {
					want.marks["R"][ti] = true
					want.rows["R"] = append(want.rows["R"], ti)
				}
			}
			slices.Sort(want.rows["R"])
		}
		for _, r := range sch.Relations() {
			if !slices.Equal(got.rows[r.Name], want.rows[r.Name]) || !slices.Equal(got.marks[r.Name], want.marks[r.Name]) {
				t.Fatalf("trial %d, %s, touched %v: rows %v marks %v, scan rows %v marks %v", trial, r.Name, touched,
					got.rows[r.Name], got.marks[r.Name], want.rows[r.Name], want.marks[r.Name])
			}
		}
		if len(got.rows) != len(want.rows) || len(got.marks) != len(want.marks) {
			t.Fatalf("trial %d: %d touched relations, scan %d", trial, len(got.rows), len(want.rows))
		}
	}
}
