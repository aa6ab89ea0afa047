package asp

import (
	"testing"

	"repro/internal/asp/dpllref"
)

// Cross-differential harness: the CDCL solver against the frozen
// pre-CDCL DPLL engine (internal/asp/dpllref). FuzzDPLL already checks
// the solver against exhaustive truth tables, but only over 5
// variables — too small for clause learning, restarts or deletion to
// ever fire. This harness runs a 16-variable universe where those
// mechanisms engage, and checks a property strictly stronger than
// equisatisfiability: the two engines must return the *same* model and
// enumerate the same model *sequence* (the canonical-model contract
// documented in sat.go), clause by incremental clause.

// cdclVars is the variable universe of FuzzCDCLvsDPLL. 16 variables
// make room for structured hard instances (pigeonhole, XOR chains)
// while keeping the DPLL reference fast enough to race.
const cdclVars = 16

// decodeCDCL turns fuzz bytes into a clause list over cdclVars
// variables. Byte 0 terminates the current clause; any other byte b
// maps to literal index (b-1)%32 — variable idx%16, positive when
// idx < 16. Same trailing-literal convention as decodeDPLL.
func decodeCDCL(data []byte) [][]Lit {
	var clauses [][]Lit
	var cur []Lit
	closed := false
	for _, bb := range data {
		if bb == 0 {
			clauses = append(clauses, cur)
			cur = nil
			closed = true
			continue
		}
		closed = false
		idx := int(bb-1) % 32
		cur = append(cur, MkLit(idx%cdclVars, idx < cdclVars))
	}
	if len(cur) > 0 || !closed && len(data) > 0 {
		clauses = append(clauses, cur)
	}
	return clauses
}

// encodeCDCL is decodeCDCL's inverse for seed construction: it renders
// clause lists into the byte format, so the structured seeds below are
// built from readable clause builders instead of opaque byte strings.
func encodeCDCL(clauses [][]Lit) []byte {
	var out []byte
	for _, c := range clauses {
		for _, l := range c {
			if l.Positive() {
				out = append(out, byte(1+l.Var()))
			} else {
				out = append(out, byte(1+cdclVars+l.Var()))
			}
		}
		out = append(out, 0)
	}
	return out
}

// pigeonholeClauses encodes PHP(p,h): p pigeons into h holes — UNSAT
// whenever p > h, with exponential-size resolution proofs that make it
// the classic DPLL-vs-CDCL separator. Variable i*h+j means pigeon i
// sits in hole j (requires p*h <= cdclVars).
func pigeonholeClauses(p, h int) [][]Lit {
	var cs [][]Lit
	for i := 0; i < p; i++ {
		var c []Lit
		for j := 0; j < h; j++ {
			c = append(c, MkLit(i*h+j, true))
		}
		cs = append(cs, c)
	}
	for j := 0; j < h; j++ {
		for i := 0; i < p; i++ {
			for k := i + 1; k < p; k++ {
				cs = append(cs, []Lit{MkLit(i*h+j, false), MkLit(k*h+j, false)})
			}
		}
	}
	return cs
}

// xorChainClauses encodes x_i ⊕ x_{i+1} ⊕ x_{i+2} = 1 for a chain of
// overlapping triples (4 CNF clauses per constraint), pinning x_0
// false; unsat pins the last variable to a parity-violating value.
// XOR chains have no short resolution refutations from unit
// propagation alone, so they exercise deep conflict analysis.
func xorChainClauses(n int, unsat bool) [][]Lit {
	xor1 := func(a, b, c int) [][]Lit {
		return [][]Lit{
			{MkLit(a, true), MkLit(b, true), MkLit(c, true)},
			{MkLit(a, true), MkLit(b, false), MkLit(c, false)},
			{MkLit(a, false), MkLit(b, true), MkLit(c, false)},
			{MkLit(a, false), MkLit(b, false), MkLit(c, true)},
		}
	}
	cs := [][]Lit{{MkLit(0, false)}}
	for i := 0; i+2 < n; i++ {
		cs = append(cs, xor1(i, i+1, i+2)...)
	}
	if unsat {
		// With x0=false, each triple forces an alternating parity down
		// the chain; contradict it by pinning both ends of a triple.
		cs = append(cs, []Lit{MkLit(1, false)}, []Lit{MkLit(2, false)})
	}
	return cs
}

// unitCascadeClauses encodes the implication ladder x_0 → x_1 → … →
// x_{n-1} plus the unit x_0 — a pure propagation workload (zero
// decisions for the whole cascade); unsat adds ¬x_{n-1}.
func unitCascadeClauses(n int, unsat bool) [][]Lit {
	cs := [][]Lit{{MkLit(0, true)}}
	for i := 0; i+1 < n; i++ {
		cs = append(cs, []Lit{MkLit(i, false), MkLit(i+1, true)})
	}
	if unsat {
		cs = append(cs, []Lit{MkLit(n-1, false)})
	}
	return cs
}

func toRefLits(c []Lit) []dpllref.Lit {
	out := make([]dpllref.Lit, len(c))
	for i, l := range c {
		out[i] = dpllref.Lit(l) // identical encoding by construction
	}
	return out
}

func modelsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzCDCLvsDPLL differentially tests the CDCL solver against the
// frozen DPLL reference: after every incremental clause both engines
// must agree on the verdict AND on the model itself; a solve under an
// input-derived assumption must agree likewise; and blocking-clause
// enumeration must produce the identical model sequence (capped at 256
// models) — the exact property the stable-model pipeline's
// deterministic enumeration order rests on.
func FuzzCDCLvsDPLL(f *testing.F) {
	f.Add([]byte{1, 2, 0, 17, 18, 0, 3})  // (x0∨x1)(¬x0∨¬x1)(x2)
	f.Add([]byte{1, 0, 17, 0})            // contradictory units
	f.Add([]byte{0})                      // the empty clause alone
	f.Add([]byte{5, 21, 0, 9, 25, 0, 13}) // three var-spanning pairs
	f.Add(encodeCDCL(pigeonholeClauses(4, 3)))
	f.Add(encodeCDCL(pigeonholeClauses(5, 3)))
	f.Add(encodeCDCL(xorChainClauses(10, false)))
	f.Add(encodeCDCL(xorChainClauses(10, true)))
	f.Add(encodeCDCL(unitCascadeClauses(16, false)))
	f.Add(encodeCDCL(unitCascadeClauses(16, true)))
	f.Fuzz(func(t *testing.T, data []byte) {
		clauses := decodeCDCL(data)
		if len(clauses) > 64 {
			clauses = clauses[:64]
		}
		cdcl := NewSolver(cdclVars)
		ref := dpllref.NewSolver(cdclVars)
		for i, c := range clauses {
			cdcl.AddClause(c...)
			ref.AddClause(toRefLits(c)...)
			gm, gok, _ := cdcl.Solve()
			wm, wok := ref.Solve()
			if gok != wok {
				t.Fatalf("after clause %d: CDCL sat=%v, DPLL sat=%v\nclauses: %v",
					i, gok, wok, clauses[:i+1])
			}
			if gok && !modelsEqual(gm, wm) {
				t.Fatalf("after clause %d: canonical-model contract broken\nCDCL: %v\nDPLL: %v\nclauses: %v",
					i, gm, wm, clauses[:i+1])
			}
		}
		if len(data) > 0 && len(clauses) > 0 {
			v := int(data[0]) % cdclVars
			pos := data[0]%2 == 0
			gm, gok, _ := cdcl.Solve(MkLit(v, pos))
			wm, wok := ref.Solve(dpllref.MkLit(v, pos))
			if gok != wok {
				t.Fatalf("under assumption v%d=%v: CDCL sat=%v, DPLL sat=%v\nclauses: %v",
					v, pos, gok, wok, clauses)
			}
			if gok && !modelsEqual(gm, wm) {
				t.Fatalf("under assumption v%d=%v: models differ\nCDCL: %v\nDPLL: %v",
					v, pos, gm, wm)
			}
		}
		// Destructive finale: lock-step blocking-clause enumeration —
		// the sequences, not just the sets, must match.
		for step := 0; step < 256; step++ {
			gm, gok, _ := cdcl.Solve()
			wm, wok := ref.Solve()
			if gok != wok {
				t.Fatalf("enumeration step %d: CDCL sat=%v, DPLL sat=%v", step, gok, wok)
			}
			if !gok {
				break
			}
			if !modelsEqual(gm, wm) {
				t.Fatalf("enumeration step %d: order diverged\nCDCL: %v\nDPLL: %v", step, gm, wm)
			}
			block := make([]Lit, cdclVars)
			for v := 0; v < cdclVars; v++ {
				block[v] = MkLit(v, !gm[v])
			}
			cdcl.AddClause(block...)
			ref.AddClause(toRefLits(block)...)
		}
	})
}

// TestCDCLStructuredInstances pins the structured generators against
// both engines outside the fuzzer (so `go test` alone covers them) and
// sanity-checks that PHP(4,3) actually drives the CDCL machinery —
// conflicts and learned clauses — rather than being dispatched by
// propagation alone.
func TestCDCLStructuredInstances(t *testing.T) {
	cases := []struct {
		name    string
		clauses [][]Lit
		wantSAT bool
	}{
		{"php_4_3", pigeonholeClauses(4, 3), false},
		{"php_5_3", pigeonholeClauses(5, 3), false},
		{"php_3_3", pigeonholeClauses(3, 3), true},
		{"xor_sat", xorChainClauses(10, false), true},
		{"xor_unsat", xorChainClauses(10, true), false},
		{"cascade_sat", unitCascadeClauses(16, false), true},
		{"cascade_unsat", unitCascadeClauses(16, true), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSolver(cdclVars)
			ref := dpllref.NewSolver(cdclVars)
			for _, c := range tc.clauses {
				s.AddClause(c...)
				ref.AddClause(toRefLits(c)...)
			}
			gm, gok, _ := s.Solve()
			wm, wok := ref.Solve()
			if gok != tc.wantSAT || wok != tc.wantSAT {
				t.Fatalf("CDCL sat=%v, DPLL sat=%v, want %v", gok, wok, tc.wantSAT)
			}
			if gok && !modelsEqual(gm, wm) {
				t.Fatalf("models differ\nCDCL: %v\nDPLL: %v", gm, wm)
			}
		})
	}

	s := NewSolver(cdclVars)
	for _, c := range pigeonholeClauses(4, 3) {
		s.AddClause(c...)
	}
	if _, ok, _ := s.Solve(); ok {
		t.Fatal("PHP(4,3) satisfiable")
	}
	if s.Conflicts() == 0 || s.Learned() == 0 {
		t.Fatalf("PHP(4,3) solved without conflicts (%d) or learning (%d) — harness not exercising CDCL",
			s.Conflicts(), s.Learned())
	}
	if got := s.Propagations(); got == 0 {
		t.Fatalf("no propagations recorded: %d", got)
	}
}
