//go:build !race

// The race detector changes allocation counts, so these guards run only
// in non-race builds.

package cq

import (
	"testing"

	"repro/internal/db"
)

// TestRunAllocsFlat pins that the join loop allocates nothing per
// tuple tried: an unselective two-atom join allocates the same number
// of objects per run over 100 and over 1000 chain tuples, in a plain
// run, in an Unordered run of a symmetric join, whose mirror filter
// rejects every match, and in a delta run touching the first link.
func TestRunAllocsFlat(t *testing.T) {
	for _, tc := range []struct {
		name  string
		atoms []Atom
		head  []string
		rs    RunSpec
		delta bool
	}{
		{"plain", []Atom{Rel("R", Var("x"), Var("y")), Rel("R", Var("y"), Var("z"))}, []string{"x", "z"}, RunSpec{}, false},
		{"unordered", []Atom{Rel("R", Var("x"), Var("z")), Rel("R", Var("y"), Var("z"))}, []string{"x", "y"}, RunSpec{Unordered: true}, false},
		{"delta", []Atom{Rel("R", Var("x"), Var("y")), Rel("R", Var("y"), Var("z"))}, []string{"x", "z"}, RunSpec{}, true},
	} {
		allocs := func(n int) float64 {
			d := chainDB(n)
			rs := tc.rs
			if tc.delta {
				c1, _ := d.Interner().Lookup("c1")
				rs.Delta = NewDelta(d, []db.Const{c1})
			}
			p, err := Prepare(tc.atoms, tc.head, d.Schema(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.rs.Unordered && !p.Symmetric() {
				t.Fatalf("%s: plan records no mirror slots", tc.name)
			}
			count := 0
			cb := func([]db.Const) bool { count++; return true }
			return testing.AllocsPerRun(20, func() { p.Run(d, rs, cb) })
		}
		small, large := allocs(100), allocs(1000)
		if small != large {
			t.Fatalf("%s: Run allocations grow with the tuples tried: %.1f per run on 100 tuples, %.1f on 1000", tc.name, small, large)
		}
		if small != 0 {
			t.Fatalf("%s: a warm Run allocates %.1f objects per run", tc.name, small)
		}
	}
}
