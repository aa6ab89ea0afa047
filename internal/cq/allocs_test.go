//go:build !race

// The race detector changes allocation counts, so these guards run only
// in non-race builds.

package cq

import (
	"testing"

	"repro/internal/db"
)

// TestRunWithAllocsFlat pins that the join loop allocates nothing per
// tuple tried: an unselective two-atom join allocates the same number
// of objects per run over 100 and over 1000 chain tuples.
func TestRunWithAllocsFlat(t *testing.T) {
	atoms := []Atom{
		Rel("R", Var("x"), Var("y")),
		Rel("R", Var("y"), Var("z")),
	}
	allocs := func(n int) float64 {
		d := chainDB(n)
		p, err := Prepare(atoms, []string{"x", "z"}, d.Schema(), nil)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		cb := func([]db.Const, []Match) bool { count++; return true }
		return testing.AllocsPerRun(20, func() { p.RunWith(d, RunSpec{}, cb) })
	}
	small, large := allocs(100), allocs(1000)
	if small != large {
		t.Fatalf("RunWith allocations grow with the tuples tried: %.1f per run on 100 tuples, %.1f on 1000", small, large)
	}
}
