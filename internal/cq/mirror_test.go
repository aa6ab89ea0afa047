package cq

import (
	"math/rand"
	"testing"

	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/sim"
)

// TestMirrorSlotsDetector pins the verdict of the symmetry detector on
// the shipped rule bodies and on the shapes it must tell apart.
func TestMirrorSlotsDetector(t *testing.T) {
	x, y, z, e, e2, u, u2 := Var("x"), Var("y"), Var("z"), Var("e"), Var("e2"), Var("u"), Var("u2")
	n, n2, ye, a, c, t1, t2 := Var("n"), Var("n2"), Var("ye"), Var("a"), Var("c"), Var("t"), Var("t2")
	xy := []string{"x", "y"}
	cases := []struct {
		name  string
		atoms []Atom
		head  []string
		want  bool
	}{
		{"rho1", []Atom{Rel("CorrAuth", z, x), Rel("CorrAuth", z, y), Rel("Author", x, e, u), Rel("Author", y, e, u2)}, xy, true},
		{"rho2", []Atom{Rel("Conference", x, n, ye), Rel("Conference", y, n2, ye), Rel("Chair", x, a), Rel("Chair", y, a), Sim("approx", n, n2)}, xy, true},
		{"sigma1", []Atom{Rel("Conference", x, n, ye), Rel("Conference", y, n2, ye), Sim("approx", n, n2)}, xy, true},
		{"sigma2", []Atom{Rel("Author", x, e, u), Rel("Author", y, e2, u), Sim("approx", e, e2)}, xy, true},
		{"sigma3", []Atom{Rel("Paper", x, t1, c), Rel("Paper", y, t2, c), Rel("Wrote", x, a, z), Rel("Wrote", y, a, z), Sim("approx", t1, t2)}, xy, true},
		{"sigma3 head swapped", []Atom{Rel("Paper", x, t1, c), Rel("Paper", y, t2, c), Rel("Wrote", x, a, z), Rel("Wrote", y, a, z), Sim("approx", t1, t2)}, []string{"y", "x"}, true},
		{"similarity arguments swapped", []Atom{Rel("Author", x, e, u), Rel("Author", y, e2, u), Sim("approx", e2, e)}, xy, true},
		{"inequality", []Atom{Rel("R", x, z), Rel("R", y, z), Neq(y, x)}, xy, true},
		{"R(x,y), S(y)", []Atom{Rel("R", x, y), Rel("S", y)}, xy, false},
		{"R(x,y), R(y,x)", []Atom{Rel("R", x, y), Rel("R", y, x)}, xy, true},
		{"distinct constants", []Atom{Rel("Paper", x, C(1)), Rel("Paper", y, C(2))}, xy, false},
		{"equal constants", []Atom{Rel("Paper", x, C(1)), Rel("Paper", y, C(1))}, xy, true},
		{"constant vs variable", []Atom{Rel("Paper", x, C(1)), Rel("Paper", y, z)}, xy, false},
		{"similarity to a constant", []Atom{Rel("S", x, e), Rel("S", y, e2), Sim("approx", e, C(1)), Sim("approx", C(1), e2)}, xy, true},
		{"repeated variables", []Atom{Rel("Wrote", x, a, a), Rel("Wrote", y, a, a)}, xy, true},
		{"repeated variable on one side", []Atom{Rel("R", x, x), Rel("R", y, x)}, xy, false},
		{"two atoms onto one", []Atom{Rel("R", x, z), Rel("R", y, z), Rel("R", x, u)}, xy, false},
		{"head (x,x)", []Atom{Rel("R", x, z), Rel("R", y, z)}, []string{"x", "x"}, false},
		{"one-variable head", []Atom{Rel("R", x, z), Rel("R", y, z)}, []string{"x"}, false},
		{"head of a non-head pair", []Atom{Rel("R", x, z), Rel("R", y, z)}, []string{"x", "z"}, false},
	}
	sims := sim.NewRegistry(sim.NewTable("approx"))
	for _, tc := range cases {
		p, err := Prepare(tc.atoms, tc.head, nil, sims)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := p.Symmetric(); got != tc.want {
			t.Errorf("%s: Symmetric() = %v, want %v", tc.name, got, tc.want)
		}
		for _, po := range p.pivots {
			if (po.unordered != nil) != tc.want {
				t.Fatalf("%s: a pivot order lacks its mirror variant", tc.name)
			}
		}
	}
}

// pairSet returns the distinct unordered pairs of distinct values
// among two-column answers.
func pairSet(answers [][]db.Const) map[eqrel.Pair]bool {
	out := make(map[eqrel.Pair]bool)
	for _, ans := range answers {
		if ans[0] != ans[1] {
			out[eqrel.MakePair(ans[0], ans[1])] = true
		}
	}
	return out
}

// samePairs reports whether two pair sets are equal.
func samePairs(a, b map[eqrel.Pair]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for pr := range a {
		if !b[pr] {
			return false
		}
	}
	return true
}

// checkUnordered checks the Unordered contract on one instance, for a
// full run and for a run over delta. On a Symmetric plan without a
// pre-bound variable, the unordered run reports the same unordered
// pairs of distinct values as the full run, every answer (a,b) it
// reports has a < b, and it reports each such answer exactly as often
// as the full run does. Elsewhere it reports exactly the full answers.
func checkUnordered(t *testing.T, p *Plan, d *db.Database, rs RunSpec, delta *Delta, what string) {
	t.Helper()
	run := func(rs RunSpec, useDelta bool) (map[string]int, [][]db.Const) {
		counts := make(map[string]int)
		var answers [][]db.Const
		cb := func(ans []db.Const) bool {
			counts[db.TupleKey(ans)]++
			answers = append(answers, append([]db.Const(nil), ans...))
			return true
		}
		if useDelta {
			rs.Delta = delta
		}
		p.Run(d, rs, cb)
		return counts, answers
	}
	un := rs
	un.Unordered = true
	for _, useDelta := range []bool{false, true} {
		full, fullAns := run(rs, useDelta)
		got, gotAns := run(un, useDelta)
		if !p.Symmetric() || len(rs.Bind) > 0 {
			if !sameCounts(got, full) {
				t.Fatalf("%s (delta %v): an unordered run that may not prune returned %v, full run %v", what, useDelta, gotAns, fullAns)
			}
			continue
		}
		if !samePairs(pairSet(gotAns), pairSet(fullAns)) {
			t.Fatalf("%s (delta %v): unordered pairs %v, full run %v", what, useDelta, pairSet(gotAns), pairSet(fullAns))
		}
		for _, ans := range gotAns {
			k := db.TupleKey(ans)
			if ans[0] >= ans[1] || got[k] != full[k] {
				t.Fatalf("%s (delta %v): unordered run reported %v %d times, full run %d", what, useDelta, ans, got[k], full[k])
			}
		}
	}
}

// sameCounts reports whether two answer multisets are equal.
func sameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// TestRunWithUnorderedMatchesOracle checks unordered full runs
// against the brute-force oracle over every deltaInstance shape, with
// and without a constant remapping: on a Symmetric plan the run keeps
// the oracle's unordered pairs of distinct values, and with a
// pre-bound head variable it returns exactly the oracle's answers.
func TestRunWithUnorderedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	symmetric := 0
	for trial := 0; trial < 400; trial++ {
		shape := trial % deltaShapes
		d, atoms, head, reg := deltaInstance(rng, shape)
		p, err := Prepare(atoms, head, d.Schema(), reg)
		if err != nil {
			t.Fatalf("shape %d: %v", shape, err)
		}
		if !p.Symmetric() {
			continue
		}
		symmetric++
		n := d.Interner().Size()
		var rep func(db.Const) db.Const
		if trial%2 == 0 {
			rep = func(c db.Const) db.Const { return min(c, db.Const(n-2)) }
		}
		var got [][]db.Const
		p.Run(d, RunSpec{Rep: rep, Unordered: true}, func(ans []db.Const) bool {
			got = append(got, append([]db.Const(nil), ans...))
			return true
		})
		want := oracleMatches(t, atoms, head, d, reg, rep, nil)
		if !samePairs(pairSet(got), pairSet(want)) {
			t.Fatalf("trial %d, shape %d: unordered pairs %v, oracle %v (atoms %v)", trial, shape, pairSet(got), pairSet(want), atoms)
		}
		bind := map[string]db.Const{head[rng.Intn(2)]: db.Const(rng.Intn(n))}
		got = got[:0]
		p.Run(d, RunSpec{Rep: rep, Bind: bind, Unordered: true}, func(ans []db.Const) bool {
			got = append(got, append([]db.Const(nil), ans...))
			return true
		})
		got, want = dedupAnswers(got), dedupAnswers(oracleMatches(t, atoms, head, d, reg, rep, bind))
		sortAnswers(got)
		sortAnswers(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d, shape %d: bound unordered run gave %v, oracle %v", trial, shape, got, want)
		}
		for i := range got {
			if db.TupleKey(got[i]) != db.TupleKey(want[i]) {
				t.Fatalf("trial %d, shape %d: bound unordered run gave %v, oracle %v", trial, shape, got, want)
			}
		}
	}
	if symmetric < 100 {
		t.Fatalf("only %d of 400 trials drew a symmetric plan", symmetric)
	}
}
