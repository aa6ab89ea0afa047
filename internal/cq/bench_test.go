package cq

import (
	"fmt"
	"testing"

	"repro/internal/db"
)

// chainDB builds R(a_i, a_{i+1}) plus a selective unary relation.
func chainDB(n int) *db.Database {
	s := db.NewSchema()
	s.MustAdd("R", "a", "b")
	s.MustAdd("Start", "a")
	d := db.New(s, nil)
	for i := 0; i < n; i++ {
		d.MustInsert("R", fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1))
	}
	d.MustInsert("Start", "c0")
	return d
}

// BenchmarkJoinChain measures a 3-way join; the greedy bound-first
// ordering should keep it linear via the column indexes.
func BenchmarkJoinChain(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := chainDB(n)
			q := &CQ{Head: []string{"w"}, Atoms: []Atom{
				Rel("Start", Var("x")),
				Rel("R", Var("x"), Var("y")),
				Rel("R", Var("y"), Var("z")),
				Rel("R", Var("z"), Var("w")),
			}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ans, err := Eval(q, d, nil)
				if err != nil || len(ans) != 1 {
					b.Fatalf("ans=%v err=%v", ans, err)
				}
			}
		})
	}
}

// BenchmarkJoinUnselective is the ablation counterpart: no selective
// start atom, so the planner falls back to scans over the first atom.
func BenchmarkJoinUnselective(b *testing.B) {
	d := chainDB(1000)
	q := &CQ{Head: []string{"x", "z"}, Atoms: []Atom{
		Rel("R", Var("x"), Var("y")),
		Rel("R", Var("y"), Var("z")),
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := Eval(q, d, nil)
		if err != nil || len(ans) != 999 {
			b.Fatalf("len=%d err=%v", len(ans), err)
		}
	}
}

// BenchmarkBooleanEarlyExit: satisfiability stops at the first match.
func BenchmarkBooleanEarlyExit(b *testing.B) {
	d := chainDB(1000)
	atoms := []Atom{Rel("R", Var("x"), Var("y"))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := Prepare(atoms, nil, d.Schema(), nil)
		if err != nil || !p.Holds(d, RunSpec{}) {
			b.Fatal("unsatisfiable")
		}
	}
}
