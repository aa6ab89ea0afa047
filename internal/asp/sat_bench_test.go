package asp

// sat_bench_test.go measures the raw CDCL core on the committed hard
// instance suite (satBenchSuite): pigeonhole refutations, an
// interleaved free-prefix/pigeonhole instance where backjumping beats
// chronological backtracking by a 2^k factor, a pure propagation
// ladder, and a blocking-clause enumeration burst — the clause shapes
// the stable-model pipeline actually feeds the solver.
// One benchmark iteration runs the whole suite on fresh solvers.
//
// When LACE_BENCH_GUARD=1 (set by the CI solver job, not by the normal
// test run), BenchmarkSATSolve additionally writes BENCH_sat.json next
// to the package (committed, so the solver numbers travel with the
// repo) and fails if throughput drops more than 25% below the committed
// floor in testdata/sat_bench_baseline.json. The floor is deliberately
// conservative so the guard trips on real regressions, not CI noise.

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/asp/dpllref"
)

// satBenchInstance is one member of the committed hard-instance suite.
type satBenchInstance struct {
	name    string
	nvars   int
	clauses [][]Lit
	wantSAT bool
	// enumerate > 0 additionally enumerates that many models through
	// blocking clauses (0 = single solve).
	enumerate int
}

// interleaveClauses prefixes an UNSAT pigeonhole core, shifted to the
// variables above `free`, with `free` low-index variables that occur in
// no clause at all. The lex-order decision heuristic still branches
// those free variables first, so a learning-free solver re-refutes the
// core in every one of the 2^free branches, while conflict-driven
// backjumping hops over the free prefix and refutes the core once.
// This is the honest DPLL-vs-CDCL separator in the suite: pigeonhole
// alone is exponential for *both* engines (resolution lower bound), so
// it separates constants, not asymptotics.
func interleaveClauses(free, p, h int) (int, [][]Lit) {
	core := pigeonholeClauses(p, h)
	shifted := make([][]Lit, len(core))
	for i, c := range core {
		sc := make([]Lit, len(c))
		for j, l := range c {
			sc[j] = MkLit(l.Var()+free, l.Positive())
		}
		shifted[i] = sc
	}
	return free + p*h, shifted
}

// satBenchSuite builds the committed suite. Every instance is
// generator-defined and deterministic, so the suite is stable across
// runs and machines.
func satBenchSuite() []satBenchInstance {
	ilVars, ilClauses := interleaveClauses(12, 5, 4)
	return []satBenchInstance{
		{name: "php_7_6", nvars: 42, clauses: pigeonholeClauses(7, 6), wantSAT: false},
		{name: "php_8_7", nvars: 56, clauses: pigeonholeClauses(8, 7), wantSAT: false},
		{name: "interleave_12_php_5_4", nvars: ilVars, clauses: ilClauses, wantSAT: false},
		{name: "cascade_4096", nvars: 4096, clauses: unitCascadeClauses(4096, false), wantSAT: true},
		{name: "xor_24_enum", nvars: 24, clauses: xorChainClauses(24, false), wantSAT: true, enumerate: 64},
	}
}

// runSATBenchInstance solves one instance on a fresh solver and returns
// the solver for counter harvesting.
func runSATBenchInstance(tb testing.TB, inst satBenchInstance) *Solver {
	s := NewSolver(inst.nvars)
	for _, c := range inst.clauses {
		s.AddClause(c...)
	}
	m, ok, _ := s.Solve()
	if ok != inst.wantSAT {
		tb.Fatalf("%s: sat=%v, want %v", inst.name, ok, inst.wantSAT)
	}
	for e := 0; ok && e < inst.enumerate; e++ {
		block := make([]Lit, inst.nvars)
		for v := range block {
			block[v] = MkLit(v, !m[v])
		}
		s.AddClause(block...)
		m, ok, _ = s.Solve()
	}
	return s
}

// satBenchResult is the BENCH_sat.json schema.
type satBenchResult struct {
	Instances         int     `json:"instances"`
	SecondsPerSuite   float64 `json:"seconds_per_suite"`
	SuitesPerSec      float64 `json:"suites_per_sec"`
	DecisionsPerSuite int64   `json:"decisions_per_suite"`
	ConflictsPerSuite int64   `json:"conflicts_per_suite"`
	LearnedPerSuite   int64   `json:"learned_per_suite"`
	RestartsPerSuite  int64   `json:"restarts_per_suite"`
}

type satBenchBaseline struct {
	SuitesPerSec float64 `json:"suites_per_sec"`
}

// BenchmarkSATSolve: the guarded CDCL benchmark.
func BenchmarkSATSolve(b *testing.B) {
	suite := satBenchSuite()
	var res satBenchResult
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res.DecisionsPerSuite, res.ConflictsPerSuite = 0, 0
		res.LearnedPerSuite, res.RestartsPerSuite = 0, 0
		for _, inst := range suite {
			s := runSATBenchInstance(b, inst)
			res.DecisionsPerSuite += s.Decisions()
			res.ConflictsPerSuite += s.Conflicts()
			res.LearnedPerSuite += s.Learned()
			res.RestartsPerSuite += s.Restarts()
		}
	}
	total := time.Since(start)
	b.StopTimer()

	res.Instances = len(suite)
	res.SecondsPerSuite = total.Seconds() / float64(b.N)
	res.SuitesPerSec = float64(b.N) / total.Seconds()
	b.ReportMetric(res.SuitesPerSec, "suites/s")
	b.ReportMetric(float64(res.ConflictsPerSuite), "conflicts/suite")

	// The guard needs more than the runner's single-iteration probe pass
	// (the CI job runs with an explicit -benchtime).
	if os.Getenv("LACE_BENCH_GUARD") != "1" || b.N < 2 {
		return
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_sat.json", append(raw, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	baseRaw, err := os.ReadFile("testdata/sat_bench_baseline.json")
	if err != nil {
		b.Fatal(err)
	}
	var base satBenchBaseline
	if err := json.Unmarshal(baseRaw, &base); err != nil {
		b.Fatal(err)
	}
	if floor := base.SuitesPerSec * 0.75; res.SuitesPerSec < floor {
		b.Fatalf("solver regression: %.2f suites/s < %.2f (75%% of committed %.2f baseline)",
			res.SuitesPerSec, floor, base.SuitesPerSec)
	}
	b.Logf("guard: %.2f suites/s >= 75%% of %.2f baseline (%d conflicts, %d learned per suite)",
		res.SuitesPerSec, base.SuitesPerSec, res.ConflictsPerSuite, res.LearnedPerSuite)
}

// TestSATBenchBaselineReadable pins the committed baseline's shape so a
// malformed edit fails fast rather than in the guarded CI job.
func TestSATBenchBaselineReadable(t *testing.T) {
	raw, err := os.ReadFile("testdata/sat_bench_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base satBenchBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	if base.SuitesPerSec <= 0 {
		t.Fatalf("baseline suites_per_sec = %v, want positive", base.SuitesPerSec)
	}
	_ = fmt.Sprintf("%v", base)
}

// TestSATBenchSuiteVerdicts runs the suite once under plain `go test`,
// so a solver change that breaks a verdict fails fast even when no one
// runs the benchmark.
func TestSATBenchSuiteVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("hard instances")
	}
	for _, inst := range satBenchSuite() {
		inst := inst
		t.Run(inst.name, func(t *testing.T) {
			s := runSATBenchInstance(t, inst)
			if inst.name == "php_8_7" && s.Learned() == 0 {
				t.Fatal("hard refutation solved without learning")
			}
		})
	}
}

// TestE23Table reproduces the EXPERIMENTS.md E23 DPLL-vs-CDCL table
// when LACE_E23=1: both engines run the same instances and report
// decisions, conflicts and wall-clock. DPLL rows are capped to the
// instances the learning-free engine finishes in reasonable time —
// PHP(8,7) alone would run it for hours, which is the point of E23.
func TestE23Table(t *testing.T) {
	if os.Getenv("LACE_E23") != "1" {
		t.Skip("set LACE_E23=1 to run the DPLL-vs-CDCL comparison")
	}
	ilVars, ilClauses := interleaveClauses(12, 5, 4)
	rows := []struct {
		name    string
		nvars   int
		clauses [][]Lit
		dpll    bool // reference engine included
	}{
		{"php_5_4", 20, pigeonholeClauses(5, 4), true},
		{"php_6_5", 30, pigeonholeClauses(6, 5), true},
		{"php_7_6", 42, pigeonholeClauses(7, 6), true},
		{"php_8_7", 56, pigeonholeClauses(8, 7), false},
		{"interleave_12_php_5_4", ilVars, ilClauses, true},
		{"cascade_4096", 4096, unitCascadeClauses(4096, false), true},
	}
	for _, r := range rows {
		s := NewSolver(r.nvars)
		for _, c := range r.clauses {
			s.AddClause(c...)
		}
		t0 := time.Now()
		_, cok, _ := s.Solve()
		cd := time.Since(t0)
		line := fmt.Sprintf("%-14s sat=%-5v | CDCL d=%-6d c=%-6d learned=%-6d %10v",
			r.name, cok, s.Decisions(), s.Conflicts(), s.Learned(), cd)
		if r.dpll {
			ref := dpllref.NewSolver(r.nvars)
			for _, c := range r.clauses {
				ref.AddClause(toRefLits(c)...)
			}
			t1 := time.Now()
			_, rok := ref.Solve()
			rd := time.Since(t1)
			if rok != cok {
				t.Fatalf("%s: verdicts diverge", r.name)
			}
			line += fmt.Sprintf(" | DPLL d=%-9d c=%-9d %12v | speedup %.1fx",
				ref.Decisions(), ref.Conflicts(), rd, float64(rd)/float64(cd))
		} else {
			line += " | DPLL (skipped: intractable without learning)"
		}
		t.Log(line)
	}
}
