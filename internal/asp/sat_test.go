package asp

import (
	"math/rand"
	"testing"
)

func TestSolverBasicSAT(t *testing.T) {
	s := NewSolver(2)
	s.AddClause(MkLit(0, true), MkLit(1, true))
	s.AddClause(MkLit(0, false), MkLit(1, true))
	m, ok, _ := s.Solve()
	if !ok {
		t.Fatal("satisfiable formula reported UNSAT")
	}
	if !m[1] {
		t.Error("x1 must be true in every model")
	}
}

func TestSolverUNSAT(t *testing.T) {
	s := NewSolver(1)
	s.AddClause(MkLit(0, true))
	s.AddClause(MkLit(0, false))
	if _, ok, _ := s.Solve(); ok {
		t.Error("contradictory units reported SAT")
	}
}

func TestSolverEmptyClause(t *testing.T) {
	s := NewSolver(1)
	s.AddClause()
	if _, ok, _ := s.Solve(); ok {
		t.Error("empty clause reported SAT")
	}
}

func TestSolverTautologyDropped(t *testing.T) {
	s := NewSolver(1)
	s.AddClause(MkLit(0, true), MkLit(0, false))
	if _, ok, _ := s.Solve(); !ok {
		t.Error("tautology made formula UNSAT")
	}
}

func TestSolverAssumptions(t *testing.T) {
	s := NewSolver(2)
	s.AddClause(MkLit(0, true), MkLit(1, true))
	if _, ok, _ := s.Solve(MkLit(0, false), MkLit(1, false)); ok {
		t.Error("assumptions violating the clause reported SAT")
	}
	m, ok, _ := s.Solve(MkLit(0, false))
	if !ok || !m[1] {
		t.Error("assumption x0=false should force x1")
	}
	// Solver reusable after assumption calls.
	if _, ok, _ := s.Solve(); !ok {
		t.Error("solver not reusable after assumption solve")
	}
}

func TestSolverPigeonhole(t *testing.T) {
	// 4 pigeons, 3 holes: UNSAT. Variable p*3+h = pigeon p in hole h.
	s := NewSolver(12)
	for p := 0; p < 4; p++ {
		s.AddClause(MkLit(p*3, true), MkLit(p*3+1, true), MkLit(p*3+2, true))
	}
	for h := 0; h < 3; h++ {
		for p1 := 0; p1 < 4; p1++ {
			for p2 := p1 + 1; p2 < 4; p2++ {
				s.AddClause(MkLit(p1*3+h, false), MkLit(p2*3+h, false))
			}
		}
	}
	if _, ok, _ := s.Solve(); ok {
		t.Error("pigeonhole 4/3 reported SAT")
	}
}

func TestSolverIncremental(t *testing.T) {
	s := NewSolver(3)
	s.AddClause(MkLit(0, true), MkLit(1, true), MkLit(2, true))
	if _, ok, _ := s.Solve(); !ok {
		t.Fatal("UNSAT at step 1")
	}
	s.AddClause(MkLit(0, false))
	s.AddClause(MkLit(1, false))
	m, ok, _ := s.Solve()
	if !ok || !m[2] {
		t.Error("incremental narrowing failed")
	}
	s.AddClause(MkLit(2, false))
	if _, ok, _ := s.Solve(); ok {
		t.Error("fully blocked formula reported SAT")
	}
}

func TestSolverNewVar(t *testing.T) {
	s := NewSolver(1)
	v := s.NewVar()
	s.AddClause(MkLit(0, true), MkLit(v, true))
	m, ok, _ := s.Solve(MkLit(0, false))
	if !ok || !m[v] {
		t.Error("fresh variable not usable")
	}
}

// TestSolverRandom3SAT cross-checks the solver against brute force on
// random small instances.
func TestSolverRandom3SAT(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(6)
		mclauses := 2 + rng.Intn(4*n)
		clauses := make([][]Lit, mclauses)
		for i := range clauses {
			c := make([]Lit, 3)
			for j := range c {
				c[j] = MkLit(rng.Intn(n), rng.Intn(2) == 0)
			}
			clauses[i] = c
		}
		s := NewSolver(n)
		for _, c := range clauses {
			s.AddClause(c...)
		}
		m, got, _ := s.Solve()
		want := bruteForceSAT(n, clauses)
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v clauses=%v", trial, got, want, clauses)
		}
		if got {
			// The returned model must satisfy all clauses.
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					if m[l.Var()] == l.Positive() {
						sat = true
					}
				}
				if !sat {
					t.Fatalf("trial %d: model %v falsifies %v", trial, m, c)
				}
			}
		}
	}
}

func bruteForceSAT(n int, clauses [][]Lit) bool {
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				val := mask>>(l.Var())&1 == 1
				if val == l.Positive() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestLitEncoding(t *testing.T) {
	for v := 0; v < 5; v++ {
		for _, pos := range []bool{true, false} {
			l := MkLit(v, pos)
			if l.Var() != v || l.Positive() != pos {
				t.Errorf("MkLit(%d,%v) round trip failed", v, pos)
			}
			if l.Neg().Var() != v || l.Neg().Positive() == pos {
				t.Errorf("Neg of MkLit(%d,%v) wrong", v, pos)
			}
		}
	}
}
