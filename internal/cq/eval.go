package cq

import (
	"sort"

	"repro/internal/db"
	"repro/internal/sim"
)

// Eval returns the set of answers to q over d (no duplicates), sorted
// lexicographically.
func Eval(q *CQ, d *db.Database, sims *sim.Registry) ([][]db.Const, error) {
	seen := make(map[string]bool)
	var out [][]db.Const
	p, err := Prepare(q.Atoms, q.Head, d.Schema(), sims)
	if err != nil {
		return nil, err
	}
	p.Run(d, RunSpec{}, func(ans []db.Const) bool {
		k := db.TupleKey(ans)
		if !seen[k] {
			seen[k] = true
			out = append(out, append([]db.Const(nil), ans...))
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out, nil
}
