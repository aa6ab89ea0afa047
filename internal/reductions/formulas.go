// Package reductions implements the constructions used in the paper's
// complexity proofs (Section 4) as instance generators, together with
// reference solvers to verify them:
//
//   - Horn-All → Rec (Theorem 1)
//   - 3SAT → Existence (Theorem 2), and the FD-only variant (Theorem 12)
//   - 3SAT → MaxRec (Theorem 3)
//   - ∀∃-3CNF QBF → CertMerge (Theorem 4) and CertAnswer (Theorem 6)
//   - 3SAT → PossMerge (Theorem 5) and PossAnswer (Theorem 7)
//
// The generators double as benchmark workloads for Table 1: hard random
// formulas produce instances on which the corresponding LACE decision
// problems exhibit their NP / coNP / Π^p_2 behaviour, while the
// polynomial rows (Rec, and the restricted fragments) stay tractable.
package reductions

import (
	"fmt"
	"math/rand"

	"repro/internal/asp"
)

// Lit is a propositional literal over 1-based variables.
type Lit struct {
	Var int
	Neg bool
}

func (l Lit) String() string {
	if l.Neg {
		return fmt.Sprintf("¬x%d", l.Var)
	}
	return fmt.Sprintf("x%d", l.Var)
}

// Clause3 is a 3-literal clause.
type Clause3 [3]Lit

// CNF is a propositional 3CNF formula.
type CNF struct {
	NumVars int
	Clauses []Clause3
}

// Random3CNF samples m clauses over n variables uniformly (distinct
// variables within a clause), the standard random 3SAT model. Around
// m/n ≈ 4.26 the instances are hardest.
func Random3CNF(rng *rand.Rand, n, m int) CNF {
	cnf := CNF{NumVars: n}
	for i := 0; i < m; i++ {
		var vs [3]int
		vs[0] = 1 + rng.Intn(n)
		for {
			vs[1] = 1 + rng.Intn(n)
			if vs[1] != vs[0] {
				break
			}
		}
		for {
			vs[2] = 1 + rng.Intn(n)
			if vs[2] != vs[0] && vs[2] != vs[1] {
				break
			}
		}
		var c Clause3
		for j := 0; j < 3; j++ {
			c[j] = Lit{Var: vs[j], Neg: rng.Intn(2) == 0}
		}
		cnf.Clauses = append(cnf.Clauses, c)
	}
	return cnf
}

// Satisfiable decides the formula with the repository's DPLL solver
// (the reference answer for reduction tests).
func (c CNF) Satisfiable() (assignment []bool, ok bool) {
	s := asp.NewSolver(c.NumVars)
	for _, cl := range c.Clauses {
		lits := make([]asp.Lit, 3)
		for i, l := range cl {
			lits[i] = asp.MkLit(l.Var-1, !l.Neg)
		}
		s.AddClause(lits...)
	}
	assignment, ok, _ = s.Solve() // unbudgeted: never fails
	return assignment, ok
}

// HornClause is b1 ∧ b2 → h over 1-based variables; b1 = b2 = 0 encodes
// the body ⊤ ∧ ⊤.
type HornClause struct {
	B1, B2, Head int
}

// HornFormula is a conjunction of Horn clauses, the input of the
// Horn-All problem of Theorem 1.
type HornFormula struct {
	NumVars int
	Clauses []HornClause
}

// EntailsAll decides φ |= v1 ∧ ... ∧ vn by unit propagation — the
// polynomial reference for the Rec reduction.
func (h HornFormula) EntailsAll() bool {
	derived := make([]bool, h.NumVars+1)
	for changed := true; changed; {
		changed = false
		for _, c := range h.Clauses {
			if derived[c.Head] {
				continue
			}
			if (c.B1 == 0 || derived[c.B1]) && (c.B2 == 0 || derived[c.B2]) {
				derived[c.Head] = true
				changed = true
			}
		}
	}
	for v := 1; v <= h.NumVars; v++ {
		if !derived[v] {
			return false
		}
	}
	return true
}

// RandomHorn samples a Horn formula with the given number of variables,
// facts (⊤-body clauses) and implication clauses.
func RandomHorn(rng *rand.Rand, nvars, facts, impls int) HornFormula {
	h := HornFormula{NumVars: nvars}
	for i := 0; i < facts; i++ {
		h.Clauses = append(h.Clauses, HornClause{Head: 1 + rng.Intn(nvars)})
	}
	for i := 0; i < impls; i++ {
		h.Clauses = append(h.Clauses, HornClause{
			B1:   1 + rng.Intn(nvars),
			B2:   1 + rng.Intn(nvars),
			Head: 1 + rng.Intn(nvars),
		})
	}
	return h
}

// ChainHorn builds the worst-case-entailing chain x1, x1→x2, ..., a
// deterministic workload whose Rec instances grow linearly.
func ChainHorn(nvars int) HornFormula {
	h := HornFormula{NumVars: nvars}
	h.Clauses = append(h.Clauses, HornClause{Head: 1})
	for v := 2; v <= nvars; v++ {
		h.Clauses = append(h.Clauses, HornClause{B1: v - 1, B2: v - 1, Head: v})
	}
	return h
}

// QBF is a ∀X∃Y 3CNF sentence: variables 1..NumX are universally
// quantified, NumX+1..NumX+NumY existentially.
type QBF struct {
	NumX, NumY int
	Clauses    []Clause3
}

// Valid decides ∀X∃Y.ψ by enumerating the 2^NumX universal assignments
// and checking the inner formula with DPLL under assumptions — the
// reference for the CertMerge reduction (feasible for small NumX).
func (q QBF) Valid() bool {
	n := q.NumX + q.NumY
	s := asp.NewSolver(n)
	for _, cl := range q.Clauses {
		lits := make([]asp.Lit, 3)
		for i, l := range cl {
			lits[i] = asp.MkLit(l.Var-1, !l.Neg)
		}
		s.AddClause(lits...)
	}
	for mask := 0; mask < 1<<q.NumX; mask++ {
		assumps := make([]asp.Lit, q.NumX)
		for v := 0; v < q.NumX; v++ {
			assumps[v] = asp.MkLit(v, mask>>v&1 == 1)
		}
		if _, ok, _ := s.Solve(assumps...); !ok {
			return false
		}
	}
	return true
}

// RandomQBF samples a ∀∃-3CNF instance. Every clause contains at least
// one existential variable (clauses over X only would almost surely
// falsify the sentence).
func RandomQBF(rng *rand.Rand, nx, ny, m int) QBF {
	q := QBF{NumX: nx, NumY: ny}
	n := nx + ny
	for i := 0; i < m; i++ {
		var vs [3]int
		vs[0] = nx + 1 + rng.Intn(ny) // force one existential
		for {
			vs[1] = 1 + rng.Intn(n)
			if vs[1] != vs[0] {
				break
			}
		}
		for {
			vs[2] = 1 + rng.Intn(n)
			if vs[2] != vs[0] && vs[2] != vs[1] {
				break
			}
		}
		var c Clause3
		for j := 0; j < 3; j++ {
			c[j] = Lit{Var: vs[j], Neg: rng.Intn(2) == 0}
		}
		q.Clauses = append(q.Clauses, c)
	}
	return q
}
