package asp

import (
	"errors"
	"testing"

	"repro/internal/limits"
)

// FuzzParse feeds arbitrary text to the parser. Two properties:
// Parse never panics (malformed input must yield a positioned error),
// and rendering a parsed program is a fixpoint — String() output
// re-parses to a program with identical rendering. The fixpoint check
// is what caught the backslash-escaping and quoted-predicate bugs: a
// program that parses but renders into unparseable (or different)
// syntax corrupts any pipeline that round-trips programs through text.
func FuzzParse(f *testing.F) {
	f.Add("p. q :- p(X).")
	f.Add(`a("\\").`)
	f.Add(`"foo bar"(x,y) :- e(x,y).`)
	f.Add("reach(X,Z) :- reach(X,Y), edge(Y,Z).\nedge(a,b). edge(b,c). reach(X,Y) :- edge(X,Y).")
	f.Add("in(X) :- node(X), not out(X). out(X) :- node(X), not in(X). node(a). node(b). :- in(a), in(b).")
	f.Add("% comment\np(\"quoted const\", X) :- q(X), not r(X).")
	f.Add("p(1,2). q(\"a\\\"b\").")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return // rejected cleanly
		}
		text := p.String()
		p2, err := Parse(text)
		if err != nil {
			t.Fatalf("rendered program does not re-parse: %v\ninput: %q\nrendered: %q", err, src, text)
		}
		if text2 := p2.String(); text2 != text {
			t.Fatalf("rendering is not a fixpoint\ninput: %q\nfirst: %q\nsecond: %q", src, text, text2)
		}
	})
}

// FuzzGround parses arbitrary text and grounds it under a resource
// budget, checking structural invariants of the ground program and —
// when solving is cheap enough — that every stable model found
// classically satisfies every ground rule. This harness caught the
// arity-mixing crash: `p. q :- p(X).` stored the 0-ary and 1-ary p
// tuples in one relation and the join index read past the short tuple.
func FuzzGround(f *testing.F) {
	f.Add("p. q :- p(X).")
	f.Add("edge(a,b). edge(b,c). reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), edge(Y,Z).")
	f.Add("node(a). node(b). in(X) :- node(X), not out(X). out(X) :- node(X), not in(X). :- in(a), in(b).")
	f.Add("p(a). p(b). q(X,Y) :- p(X), p(Y), not r(X,Y). r(a,b).")
	f.Add(":- not p. p :- not q. q :- not p.")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		b := limits.NewBudget(nil, limits.Limits{
			MaxGroundRules: 4000,
			MaxClauses:     40000,
			MaxDecisions:   20000,
		})
		gp, err := Ground(p, b, nil)
		if err != nil {
			return // budget stop or a grounding error — both fine, no panic
		}
		n := gp.NumAtoms()
		for ri, r := range gp.Rules {
			if r.Head < -1 || r.Head >= n {
				t.Fatalf("rule %d: head id %d out of range [0,%d)", ri, r.Head, n)
			}
			for _, id := range append(append([]int(nil), r.Pos...), r.Neg...) {
				if id < 0 || id >= n {
					t.Fatalf("rule %d: body id %d out of range [0,%d)", ri, id, n)
				}
			}
		}
		for id := 0; id < n; id++ {
			if gp.AtomString(id) == "" {
				t.Fatalf("atom %d renders empty", id)
			}
		}
		ss := NewStableSolver(gp, b, nil)
		count := 0
		_ = ss.Enumerate(func(m []bool) bool {
			count++
			checkClassicalModel(t, gp, m)
			for a := 0; a < n; a++ {
				if m[a] && !gp.derived[a] {
					t.Fatalf("stable model contains %s, which is outside the positive projection",
						gp.AtomString(a))
				}
			}
			return count < 16
		})
	})
}

// checkClassicalModel fails if the atom assignment violates a ground
// rule read as a classical implication — a property every stable model
// must have.
func checkClassicalModel(t *testing.T, gp *GroundProgram, m []bool) {
	t.Helper()
	for ri, r := range gp.Rules {
		fires := true
		for _, p := range r.Pos {
			if !m[p] {
				fires = false
				break
			}
		}
		for _, ng := range r.Neg {
			if fires && m[ng] {
				fires = false
			}
		}
		if !fires {
			continue
		}
		if r.Head < 0 {
			t.Fatalf("stable model violates constraint (rule %d)", ri)
		}
		if !m[r.Head] {
			t.Fatalf("stable model falsifies rule %d: body holds, head %s false",
				ri, gp.AtomString(r.Head))
		}
	}
}

// dpllVars is the variable count of the FuzzDPLL universe: 5 variables
// keep the reference truth table at 32 rows, cheap enough to rebuild
// after every clause.
const dpllVars = 5

// decodeDPLL turns fuzz bytes into a clause list over dpllVars
// variables. Byte b maps to b%11: 0 terminates the current clause,
// 1..5 are positive literals of variables 0..4, 6..10 their negations.
func decodeDPLL(data []byte) [][]Lit {
	var clauses [][]Lit
	var cur []Lit
	closed := false // saw a terminator since the last literal
	for _, bb := range data {
		r := int(bb % 11)
		if r == 0 {
			clauses = append(clauses, cur)
			cur = nil
			closed = true
			continue
		}
		closed = false
		cur = append(cur, MkLit((r-1)%dpllVars, r <= dpllVars))
	}
	if len(cur) > 0 || !closed && len(data) > 0 {
		clauses = append(clauses, cur)
	}
	return clauses
}

// ttSat reports whether the clause set is satisfiable by exhaustive
// truth-table evaluation, and how many total assignments satisfy it.
func ttSat(clauses [][]Lit, fixed map[int]bool) (sat bool, count int) {
	for bits := 0; bits < 1<<dpllVars; bits++ {
		m := make([]bool, dpllVars)
		for v := 0; v < dpllVars; v++ {
			m[v] = bits&(1<<v) != 0
		}
		ok := true
		for v, want := range fixed {
			if m[v] != want {
				ok = false
				break
			}
		}
		if ok && !ttEval(clauses, m) {
			ok = false
		}
		if ok {
			sat = true
			count++
		}
	}
	return sat, count
}

func ttEval(clauses [][]Lit, m []bool) bool {
	for _, c := range clauses {
		satisfied := false
		for _, l := range c {
			if m[l.Var()] == l.Positive() {
				satisfied = true
				break
			}
		}
		if !satisfied {
			return false
		}
	}
	return true
}

// FuzzDPLL differentially tests the DPLL solver against a truth table:
// clauses are added incrementally (exercising the incremental AddClause
// path, including empty clauses, units after models, and duplicate or
// tautological literals the decoder happens to produce), with a full
// SAT/UNSAT comparison after every clause, a solve under assumptions,
// and a final blocking-clause model count.
func FuzzDPLL(f *testing.F) {
	f.Add([]byte{1, 0, 6, 0})          // x0 . ¬x0 — UNSAT via two units
	f.Add([]byte{1, 2, 0, 6, 7, 0, 3}) // (x0∨x1)(¬x0∨¬x1)(x2)
	f.Add([]byte{0})                   // the empty clause alone
	f.Add([]byte{1, 1, 6, 0, 2})       // duplicate + tautological literals
	f.Add([]byte{5, 10, 0, 4, 9, 0, 3, 8, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		clauses := decodeDPLL(data)
		if len(clauses) > 64 {
			clauses = clauses[:64]
		}
		s := NewSolver(dpllVars)
		for i, c := range clauses {
			s.AddClause(c...)
			model, ok, _ := s.Solve()
			wantSat, _ := ttSat(clauses[:i+1], nil)
			if ok != wantSat {
				t.Fatalf("after clause %d: solver says sat=%v, truth table says %v\nclauses: %v",
					i, ok, wantSat, clauses[:i+1])
			}
			if ok && !ttEval(clauses[:i+1], model) {
				t.Fatalf("after clause %d: returned model %v violates a clause\nclauses: %v",
					i, model, clauses[:i+1])
			}
		}
		if len(data) > 0 && len(clauses) > 0 {
			// One assumption derived from the input, compared against the
			// truth table restricted to that assignment.
			v := int(data[0]) % dpllVars
			pos := data[0]%2 == 0
			model, ok, _ := s.Solve(MkLit(v, pos))
			wantSat, _ := ttSat(clauses, map[int]bool{v: pos})
			if ok != wantSat {
				t.Fatalf("under assumption v%d=%v: solver sat=%v, truth table %v\nclauses: %v",
					v, pos, ok, wantSat, clauses)
			}
			if ok && (model[v] != pos || !ttEval(clauses, model)) {
				t.Fatalf("under assumption v%d=%v: bad model %v", v, pos, model)
			}
		}
		// Destructive finale: enumerate all models via blocking clauses
		// and compare the count with the truth table.
		_, wantCount := ttSat(clauses, nil)
		got := 0
		for {
			model, ok, _ := s.Solve()
			if !ok {
				break
			}
			got++
			if got > 1<<dpllVars {
				t.Fatalf("enumeration exceeded 2^%d models", dpllVars)
			}
			block := make([]Lit, dpllVars)
			for v := 0; v < dpllVars; v++ {
				block[v] = MkLit(v, !model[v])
			}
			s.AddClause(block...)
		}
		if got != wantCount {
			t.Fatalf("enumerated %d models, truth table has %d\nclauses: %v", got, wantCount, clauses)
		}
	})
}

// TestDecodeDPLLTerminators pins the decoder's corner cases so corpus
// entries keep meaning the same clause lists.
func TestDecodeDPLLTerminators(t *testing.T) {
	if got := decodeDPLL(nil); got != nil {
		t.Fatalf("empty input decoded to %v", got)
	}
	got := decodeDPLL([]byte{0})
	if len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("single terminator = %v, want one empty clause", got)
	}
	got = decodeDPLL([]byte{1, 0, 2})
	if len(got) != 2 || len(got[0]) != 1 || len(got[1]) != 1 {
		t.Fatalf("trailing literal = %v, want two unit clauses", got)
	}
}

// TestFuzzErrorsStayTyped: budget stops inside the FuzzGround pipeline
// match the limits sentinels (the harness relies on this to skip).
func TestFuzzErrorsStayTyped(t *testing.T) {
	p := MustParse("edge(a,b). edge(b,c). edge(c,a). reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), edge(Y,Z).")
	b := limits.NewBudget(nil, limits.Limits{MaxGroundRules: 2})
	_, err := Ground(p, b, nil)
	if !errors.Is(err, limits.ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}
