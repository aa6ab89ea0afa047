// Command lacebench regenerates every experiment in EXPERIMENTS.md:
// the Figure 1 running example, scaling runs for each row of Table 1
// (general vs restricted data complexity), the Theorem 10 ASP
// cross-check, the Theorem 11 EL separation, the Proposition 1
// transformation, the Theorem 9 tractable classes, the Theorem 12
// FD-only hardness, the synthetic workload comparison against the
// Dedupalog-style baseline, and the sharded-resolution scaling run on
// 10^3..10^5-entity Zipf workloads.
//
//	go run ./cmd/lacebench            # all experiments
//	go run ./cmd/lacebench -run E4,E6 # a subset
//	go run ./cmd/lacebench -quick     # smaller sweeps
//
// Observability: -stats prints a uniform per-experiment stats block
// (phase durations plus the canonical solver counters), -stats-json
// emits the same as one JSON object per experiment, -trace FILE writes
// a JSONL span trace, and -cpuprofile/-memprofile capture runtime/pprof
// profiles of the whole run. -seed overrides the per-experiment RNG
// seeds (the defaults reproduce the numbers in EXPERIMENTS.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	lace "repro"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/dedupalog"
	"repro/internal/el"
	"repro/internal/eqrel"
	"repro/internal/fixtures"
	"repro/internal/graphs"
	"repro/internal/obs"
	"repro/internal/reductions"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/workload"
)

var (
	quick    = flag.Bool("quick", false, "smaller parameter sweeps")
	seedFlag = flag.Int64("seed", 0, "override the per-experiment RNG seeds (0 = EXPERIMENTS.md defaults)")
	parallel = flag.Int("parallel", 1, "Options.Parallelism for every engine (0 = GOMAXPROCS, 1 = sequential)")

	// rec is the recorder the experiments report to: the no-op recorder
	// unless -stats/-stats-json/-trace enables the live registry.
	rec obs.Recorder = obs.Nop{}
	reg *obs.Registry
)

// seedOr returns the experiment's default seed unless -seed overrides it.
func seedOr(def int64) int64 {
	if *seedFlag != 0 {
		return *seedFlag
	}
	return def
}

// engineOpts is core.Options/lace.Options with the benchmark recorder
// and the -parallel worker count.
func engineOpts() core.Options { return core.Options{Recorder: rec, Parallelism: *parallel} }

func main() {
	os.Exit(benchMain())
}

// benchMain carries the real main so deferred cleanup (profiles, trace
// file) runs even when an experiment fails.
func benchMain() int {
	runList := flag.String("run", "all", "comma-separated experiment ids (E1..E17) or 'all'")
	stats := flag.Bool("stats", false, "print a stats block after every experiment")
	statsJSON := flag.Bool("stats-json", false, "print per-experiment stats as JSON")
	tracePath := flag.String("trace", "", "write a JSONL span trace to FILE")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to FILE")
	memProfile := flag.String("memprofile", "", "write a heap profile to FILE")
	flag.Parse()

	if *stats || *statsJSON || *tracePath != "" {
		reg = obs.NewRegistry()
		rec = reg
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lacebench:", err)
				return 1
			}
			defer f.Close()
			reg.TraceTo(f)
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lacebench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "lacebench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lacebench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "lacebench:", err)
			}
		}()
	}

	type exp struct {
		id, title string
		fn        func() error
	}
	exps := []exp{
		{"E1", "Figure 1 running example (Examples 4 & 6)", e1Figure1},
		{"E2", "Example 5 justifications", e2Justifications},
		{"E3", "Table 1 Rec row: polynomial scaling (Horn-All)", e3Rec},
		{"E4", "Table 1 Existence row: NP-hard general vs P restricted", e4Existence},
		{"E5", "Table 1 MaxRec row: coNP general vs P restricted", e5MaxRec},
		{"E6", "Table 1 CertMerge row: Pi^p_2 (forall-exists QBF)", e6CertMerge},
		{"E7", "Table 1 PossMerge row: NP (3SAT)", e7PossMerge},
		{"E8", "Table 1 CertAnswer / PossAnswer rows", e8Answers},
		{"E9", "Theorem 10: ASP encoding vs native semantics", e9ASP},
		{"E10", "Theorem 11: EL H* vs LACE Sigma_sg on dgbc graphs", e10Theorem11},
		{"E11", "Proposition 1: hard = soft + denial", e11Prop1},
		{"E12", "Theorem 9 tractable classes", e12Tractable},
		{"E13", "Synthetic workload: LACE vs Dedupalog baseline", e13Workload},
		{"E14", "Theorem 12: hardness survives FD-only denials", e14FDOnly},
		{"E15", "Section 7 extensions: scoring, explanations, local merges", e15Extensions},
		{"E16", "Section 7 blocking: candidate reduction for similarity tables", e16Blocking},
		{"E17", "Sharded resolution scaling (coupled components)", e17Shards},
	}

	want := map[string]bool{}
	if *runList != "all" {
		for _, id := range strings.Split(*runList, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	for _, e := range exps {
		if *runList != "all" && !want[e.id] {
			continue
		}
		fmt.Printf("=== %s: %s ===\n", e.id, e.title)
		start := time.Now()
		sp := rec.Start("exp." + e.id)
		err := e.fn()
		sp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			return 1
		}
		if reg != nil {
			printStats(e.id, reg.Snapshot(), *statsJSON)
			reg.Reset()
		}
		fmt.Printf("(%s in %v)\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// printStats emits the uniform per-experiment stats block: every
// canonical phase and counter appears (zero when the experiment did not
// exercise that layer), followed by any extra recorded entries, so the
// blocks of different experiments line up row by row. Between the two
// sits the distribution table of the recorded value histograms (shard
// sizes, justification steps, per-solve ASP counts), as
// obs.Snapshot.Format prints it.
func printStats(id string, snap obs.Snapshot, asJSON bool) {
	if asJSON {
		out := struct {
			Experiment string `json:"experiment"`
			obs.Snapshot
		}{id, snap}
		if b, err := json.Marshal(out); err == nil {
			fmt.Println(string(b))
		}
		return
	}
	fmt.Printf("--- %s stats ---\n", id)
	canonPhase := obs.CanonicalPhases()
	fmt.Printf("%-28s %8s %12s %12s\n", "phase", "count", "total", "mean")
	inCanon := make(map[string]bool)
	for _, name := range canonPhase {
		inCanon[name] = true
		d := snap.Duration(name)
		fmt.Printf("%-28s %8d %12v %12v\n", name, d.Count,
			d.Total.Round(time.Microsecond), d.Mean().Round(time.Microsecond))
	}
	var extra []string
	for name := range snap.Histograms {
		if !inCanon[name] && !obs.IsValueHist(name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		d := snap.Duration(name)
		fmt.Printf("%-28s %8d %12v %12v\n", name, d.Count,
			d.Total.Round(time.Microsecond), d.Mean().Round(time.Microsecond))
	}
	snap.WriteDistributions(os.Stdout)
	fmt.Printf("%-46s %12s\n", "counter", "value")
	for _, name := range obs.CanonicalCounters() {
		fmt.Printf("%-46s %12d\n", name, snap.Counter(name))
	}
	for _, name := range obs.CanonicalGauges() {
		fmt.Printf("%-46s %12d\n", name, snap.GaugeValue(name))
	}
}

func timeIt(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// E1: the running example.
func e1Figure1() error {
	f := fixtures.New()
	snap, err := lace.NewSnapshot(f.DB, f.Spec, f.Sims, engineOpts())
	if err != nil {
		return err
	}
	ms, err := snap.MaximalSolutionsCtx(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("maximal solutions: %d (paper: 2)\n", len(ms))
	for i, m := range ms {
		fmt.Printf("  M%d = %s\n", i+1, m.Format(f.DB.Interner()))
	}
	cm, err := snap.CertainMergesCtx(context.Background())
	if err != nil {
		return err
	}
	pm, err := snap.PossibleMergesCtx(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("certain merges: %d (paper: alpha,beta,(a1,a3),zeta,theta,kappa = 6)\n", len(cm))
	fmt.Printf("possible merges: %d (paper: certain + chi + lambda = 8)\n", len(pm))
	eta := slices.Contains(pm, eqrel.MakePair(f.Const("c3"), f.Const("c4")))
	fmt.Printf("eta possible: %v (paper: false)\n", eta)
	return nil
}

// E2: justifications of Example 5.
func e2Justifications() error {
	f := fixtures.New()
	snap, err := lace.NewSnapshot(f.DB, f.Spec, f.Sims, engineOpts())
	if err != nil {
		return err
	}
	ms, err := snap.MaximalSolutionsCtx(context.Background())
	if err != nil {
		return err
	}
	eng := snap.Engine()
	j, err := eng.Justify(ms[0], f.Const("c2"), f.Const("c3"))
	if err != nil {
		return err
	}
	fmt.Printf("zeta one-step justification (%d step):\n%s", len(j.Steps), j.Format(f.DB.Interner()))
	j, err = eng.Justify(ms[0], f.Const("a4"), f.Const("a5"))
	if err != nil {
		return err
	}
	fmt.Printf("kappa recursive justification (%d steps):\n%s", len(j.Steps), j.Format(f.DB.Interner()))
	return nil
}

// E3: Rec is polynomial — time the Theorem 1 check on growing chains.
func e3Rec() error {
	sizes := []int{20, 40, 80, 160}
	if *quick {
		sizes = []int{10, 20, 40}
	}
	fmt.Printf("%-8s %-10s %-12s %s\n", "n", "facts", "Rec time", "verdict")
	for _, n := range sizes {
		h := reductions.ChainHorn(n)
		d, spec, ev, err := reductions.HornAllInstance(h)
		if err != nil {
			return err
		}
		eng, err := core.New(d, spec, nil, engineOpts())
		if err != nil {
			return err
		}
		t0 := time.Now()
		ok := eng.IsSolution(ev)
		dt := time.Since(t0)
		fmt.Printf("%-8d %-10d %-12v %v\n", n, d.NumFacts(), dt.Round(time.Microsecond), ok)
	}
	fmt.Println("shape: near-linear growth — Rec is tractable (P-complete).")
	return nil
}

// e4Existence: general Existence on hard random 3SAT (exponential
// trend) vs restricted Existence (polynomial closure check).
func e4Existence() error {
	sizes := []int{4, 6, 8, 10}
	if *quick {
		sizes = []int{4, 6, 8}
	}
	rng := rand.New(rand.NewSource(seedOr(4)))
	fmt.Printf("%-6s %-10s %-14s %s\n", "n", "clauses", "general time", "agrees with SAT")
	for _, n := range sizes {
		m := int(4.26*float64(n) + 0.5)
		phi := reductions.Random3CNF(rng, n, m)
		_, want := phi.Satisfiable()
		d, spec, err := reductions.ExistenceInstance(phi)
		if err != nil {
			return err
		}
		eng, err := core.New(d, spec, nil, engineOpts())
		if err != nil {
			return err
		}
		var got bool
		dt, err := timeIt(func() error {
			var err error
			_, got, err = eng.ExistenceCtx(context.Background())
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-6d %-10d %-14v %v\n", n, m, dt.Round(time.Microsecond), got == want)
	}
	// Restricted fragment: polynomial.
	fmt.Printf("\nrestricted fragment (no inequalities): hard-closure existence check\n")
	fmt.Printf("%-8s %-10s %s\n", "scale", "facts", "time")
	for _, scale := range []int{20, 40, 80} {
		eng, nfacts, err := restrictedWorkloadEngine(scale)
		if err != nil {
			return err
		}
		dt, err := timeIt(func() error {
			_, _, err := eng.ExistenceCtx(context.Background())
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %-10d %v\n", scale, nfacts, dt.Round(time.Microsecond))
	}
	fmt.Println("shape: general grows super-polynomially on hard instances; restricted stays flat.")

	// Parallelism sweep on one hard general instance. An unsatisfiable
	// formula forces Existence to refute the whole solution space, so
	// the searcher's worker scaling is visible (on multi-core hosts).
	pn := 10
	if *quick {
		pn = 8
	}
	prng := rand.New(rand.NewSource(seedOr(4) + 1))
	var phi reductions.CNF
	for {
		phi = reductions.Random3CNF(prng, pn, 6*pn)
		if _, sat := phi.Satisfiable(); !sat {
			break
		}
	}
	d, spec, err := reductions.ExistenceInstance(phi)
	if err != nil {
		return err
	}
	fmt.Printf("\nparallelism sweep: general Existence, UNSAT n=%d (GOMAXPROCS=%d)\n",
		pn, runtime.GOMAXPROCS(0))
	fmt.Printf("%-10s %-14s %s\n", "parallel", "time", "speedup")
	var baseline time.Duration
	for _, p := range []int{1, 2, 4, 8} {
		eng, err := core.New(d, spec, nil, core.Options{Recorder: rec, Parallelism: p})
		if err != nil {
			return err
		}
		dt, err := timeIt(func() error {
			_, ok, err := eng.ExistenceCtx(context.Background())
			if err == nil && ok {
				return fmt.Errorf("UNSAT instance reported a solution")
			}
			return err
		})
		if err != nil {
			return err
		}
		if p == 1 {
			baseline = dt
		}
		fmt.Printf("%-10d %-14v %.2fx\n", p, dt.Round(time.Microsecond), float64(baseline)/float64(dt))
	}
	return nil
}

// restrictedWorkloadEngine builds a restricted (inequality-free) spec
// over a generated workload: only delta3 is kept.
func restrictedWorkloadEngine(scale int) (*core.Engine, int, error) {
	cfg := workload.DefaultConfig(seedOr(9))
	cfg.Authors = scale
	cfg.Papers = scale
	cfg.Conferences = scale / 5
	if cfg.Conferences < 2 {
		cfg.Conferences = 2
	}
	cfg.DirtyWrote = 0
	ds, err := workload.Generate(cfg)
	if err != nil {
		return nil, 0, err
	}
	spec := &lace.Spec{Rules: ds.Spec.Rules}
	for _, dn := range ds.Spec.Denials {
		if !dn.HasNeq() {
			spec.Denials = append(spec.Denials, dn)
		}
	}
	eng, err := core.New(ds.DB, spec, ds.Sims, engineOpts())
	if err != nil {
		return nil, 0, err
	}
	return eng, ds.DB.NumFacts(), nil
}

// e5MaxRec: general MaxRec on Theorem 3 instances vs restricted MaxRec.
func e5MaxRec() error {
	rng := rand.New(rand.NewSource(seedOr(5)))
	sizes := []int{3, 4, 5}
	fmt.Printf("%-6s %-14s %s\n", "n", "general time", "agrees (identity maximal iff UNSAT)")
	for _, n := range sizes {
		phi := reductions.Random3CNF(rng, n, int(4.26*float64(n)+0.5))
		_, sat := phi.Satisfiable()
		d, spec, err := reductions.MaxRecInstance(phi)
		if err != nil {
			return err
		}
		eng, err := core.New(d, spec, nil, engineOpts())
		if err != nil {
			return err
		}
		var got bool
		dt, err := timeIt(func() error {
			var err error
			got, err = eng.IsMaximalSolution(context.Background(), eng.Identity())
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-6d %-14v %v\n", n, dt.Round(time.Microsecond), got == !sat)
	}
	fmt.Printf("\nrestricted MaxRec (Theorem 8 algorithm):\n%-8s %s\n", "scale", "time")
	for _, scale := range []int{20, 40, 80} {
		eng, _, err := restrictedWorkloadEngine(scale)
		if err != nil {
			return err
		}
		sol, ok, err := eng.GreedySolutionCtx(context.Background())
		if err != nil || !ok {
			return fmt.Errorf("greedy failed: %v", err)
		}
		dt, err := timeIt(func() error {
			_, err := eng.IsMaximalSolution(context.Background(), sol)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %v\n", scale, dt.Round(time.Microsecond))
	}
	return nil
}

// e6CertMerge: the Pi^p_2 row via forall-exists QBF.
func e6CertMerge() error {
	rng := rand.New(rand.NewSource(seedOr(6)))
	shapes := [][2]int{{2, 2}, {2, 3}, {3, 2}}
	if !*quick {
		shapes = append(shapes, [2]int{3, 3})
	}
	fmt.Printf("%-10s %-14s %s\n", "X/Y vars", "time", "agrees with QBF validity")
	for _, sh := range shapes {
		q := reductions.RandomQBF(rng, sh[0], sh[1], 3)
		want := q.Valid()
		d, spec, cm, cmp, err := reductions.CertMergeInstance(q)
		if err != nil {
			return err
		}
		eng, err := core.New(d, spec, nil, engineOpts())
		if err != nil {
			return err
		}
		var got bool
		dt, err := timeIt(func() error {
			var err error
			certain, err := eng.CertainMergesCtx(context.Background())
			got = slices.Contains(certain, eqrel.MakePair(cm, cmp))
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("%d/%-8d %-14v %v\n", sh[0], sh[1], dt.Round(time.Microsecond), got == want)
	}
	return nil
}

// e7PossMerge: the NP row via 3SAT.
func e7PossMerge() error {
	rng := rand.New(rand.NewSource(seedOr(7)))
	sizes := []int{4, 6, 8}
	fmt.Printf("%-6s %-14s %s\n", "n", "time", "agrees with SAT")
	for _, n := range sizes {
		phi := reductions.Random3CNF(rng, n, int(4.26*float64(n)+0.5))
		_, want := phi.Satisfiable()
		d, spec, c1, c2, err := reductions.PossMergeInstance(phi)
		if err != nil {
			return err
		}
		eng, err := core.New(d, spec, nil, engineOpts())
		if err != nil {
			return err
		}
		var got bool
		dt, err := timeIt(func() error {
			var err error
			got, err = eng.IsPossibleMergeCtx(context.Background(), c1, c2)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-6d %-14v %v\n", n, dt.Round(time.Microsecond), got == want)
	}
	return nil
}

// e8Answers: the query-answering rows.
func e8Answers() error {
	rng := rand.New(rand.NewSource(seedOr(8)))
	phi := reductions.Random3CNF(rng, 5, 21)
	_, sat := phi.Satisfiable()
	d, spec, q, err := reductions.PossAnswerInstance(phi)
	if err != nil {
		return err
	}
	eng, err := core.New(d, spec, nil, engineOpts())
	if err != nil {
		return err
	}
	var got bool
	dt, err := timeIt(func() error {
		var err error
		got, err = eng.IsPossibleAnswerCtx(context.Background(), q, nil)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Printf("PossAnswer (n=5): %v, agrees with SAT: %v\n", dt.Round(time.Microsecond), got == sat)

	qbf := reductions.RandomQBF(rng, 2, 3, 3)
	valid := qbf.Valid()
	d2, spec2, q2, err := reductions.CertAnswerInstance(qbf)
	if err != nil {
		return err
	}
	eng2, err := core.New(d2, spec2, nil, engineOpts())
	if err != nil {
		return err
	}
	dt, err = timeIt(func() error {
		var err error
		ans, err := eng2.CertainAnswersCtx(context.Background(), q2)
		got = len(ans) > 0
		return err
	})
	if err != nil {
		return err
	}
	fmt.Printf("CertAnswer (2/3 vars): %v, agrees with QBF: %v\n", dt.Round(time.Microsecond), got == valid)
	return nil
}

// e9ASP: Theorem 10 cross-check and timing.
func e9ASP() error {
	f := fixtures.New()
	snap, err := lace.NewSnapshot(f.DB, f.Spec, f.Sims, engineOpts())
	if err != nil {
		return err
	}
	nativeCount := 0
	nativeTime, err := timeIt(func() error {
		return snap.Engine().SolutionsCtx(context.Background(), func(*eqrel.Partition) bool { nativeCount++; return false })
	})
	if err != nil {
		return err
	}
	solver, err := lace.NewASPSolver(f.DB, f.Spec, f.Sims, nil, rec)
	if err != nil {
		return err
	}
	aspCount := 0
	aspTime, err := timeIt(func() error {
		return solver.Solutions(func(*eqrel.Partition) bool { aspCount++; return true })
	})
	if err != nil {
		return err
	}
	fmt.Printf("Figure 1 solutions: native %d in %v, ASP %d in %v\n",
		nativeCount, nativeTime.Round(time.Microsecond), aspCount, aspTime.Round(time.Microsecond))

	aspMax := 0
	solver2, err := lace.NewASPSolver(f.DB, f.Spec, f.Sims, nil, rec)
	if err != nil {
		return err
	}
	maxTime, err := timeIt(func() error {
		return solver2.MaximalSolutions(func(*eqrel.Partition) bool { aspMax++; return true })
	})
	if err != nil {
		return err
	}
	fmt.Printf("subset-maximal eq-projections: %d in %v (native: 2)\n", aspMax, maxTime.Round(time.Microsecond))
	prog, err := lace.EncodeASP(f.DB, f.Spec, f.Sims)
	if err != nil {
		return err
	}
	fmt.Printf("Pi_Sol: %d rules before grounding\n", len(prog.Rules))
	return nil
}

// e10Theorem11: the EL separation table.
func e10Theorem11() error {
	fmt.Printf("%-10s %-10s %-14s %-14s %s\n", "graph", "sg pairs", "LACE certain", "EL certain", "EL unjustified")
	for _, sh := range [][2]int{{1, 0}, {2, 1}, {3, 2}, {4, 2}} {
		g := graphs.DGBC(sh[0], sh[1])
		d := g.Database()
		sgSet := make(map[[2]string]bool)
		for _, p := range g.SameGeneration() {
			sgSet[p] = true
		}
		spec, err := graphs.SigmaSG(d.Schema())
		if err != nil {
			return err
		}
		eng, err := core.New(d, spec, nil, engineOpts())
		if err != nil {
			return err
		}
		cm, err := eng.CertainMergesCtx(context.Background())
		if err != nil {
			return err
		}
		ev, err := el.NewEvaluator(el.SameGenerationSpec("link"), d)
		if err != nil {
			return err
		}
		certain, err := ev.CertainLinks()
		if err != nil {
			return err
		}
		elCount, unjust := 0, 0
		in := d.Interner()
		for l := range certain {
			if l.A == l.B {
				continue
			}
			elCount++
			if !sgSet[[2]string{in.Name(l.A), in.Name(l.B)}] {
				unjust++
			}
		}
		fmt.Printf("G^%d_%-6d %-10d %-14d %-14d %d\n",
			sh[1], sh[0], len(sgSet), 2*len(cm), elCount, unjust)
	}
	fmt.Println("LACE certifies exactly the sg pairs; EL H* always certifies extra, unjustified links.")
	return nil
}

// e11Prop1: the hard-to-soft transformation preserves solutions.
func e11Prop1() error {
	f := fixtures.New()
	snap, err := lace.NewSnapshot(f.DB, f.Spec, f.Sims, engineOpts())
	if err != nil {
		return err
	}
	snap2, err := lace.NewSnapshot(f.DB, f.Spec.Prop1Transform(), f.Sims, engineOpts())
	if err != nil {
		return err
	}
	collect := func(e *core.Engine) (map[string]bool, time.Duration, error) {
		set := map[string]bool{}
		dt, err := timeIt(func() error {
			return e.SolutionsCtx(context.Background(), func(E *eqrel.Partition) bool { set[E.Key()] = true; return false })
		})
		return set, dt, err
	}
	s1, t1, err := collect(snap.Engine())
	if err != nil {
		return err
	}
	s2, t2, err := collect(snap2.Engine())
	if err != nil {
		return err
	}
	same := len(s1) == len(s2)
	for k := range s1 {
		if !s2[k] {
			same = false
		}
	}
	fmt.Printf("original: %d solutions in %v; transformed: %d in %v; identical: %v\n",
		len(s1), t1.Round(time.Microsecond), len(s2), t2.Round(time.Microsecond), same)
	return nil
}

// e12Tractable: Theorem 9 closures scale polynomially.
func e12Tractable() error {
	fmt.Printf("%-12s %-8s %-10s %s\n", "class", "scale", "facts", "time")
	for _, scale := range []int{20, 40, 80} {
		cfg := workload.DefaultConfig(seedOr(12))
		cfg.Authors, cfg.Papers, cfg.Conferences = scale, scale, scale/5+2
		cfg.DirtyWrote = 0
		ds, err := workload.Generate(cfg)
		if err != nil {
			return err
		}
		// Hard-only: keep rho1 only.
		hardOnly := &lace.Spec{Rules: ds.Spec.HardRules()}
		engH, err := core.New(ds.DB, hardOnly, ds.Sims, engineOpts())
		if err != nil {
			return err
		}
		dtH, err := timeIt(func() error { _, err := engH.MaximalSolutionsCtx(context.Background()); return err })
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %-8d %-10d %v\n", "hard-only", scale, ds.DB.NumFacts(), dtH.Round(time.Microsecond))

		// Denial-free: all rules, no denials.
		denFree := &lace.Spec{Rules: ds.Spec.Rules}
		engD, err := core.New(ds.DB, denFree, ds.Sims, engineOpts())
		if err != nil {
			return err
		}
		dtD, err := timeIt(func() error { _, err := engD.MaximalSolutionsCtx(context.Background()); return err })
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %-8d %-10d %v\n", "denial-free", scale, ds.DB.NumFacts(), dtD.Round(time.Microsecond))
	}
	return nil
}

// e13Workload: quality and runtime against the baseline.
func e13Workload() error {
	scales := []int{10, 20, 40, 80}
	if *quick {
		scales = []int{10, 20}
	}
	fmt.Printf("%-8s %-10s | %-24s %-10s | %-24s %s\n",
		"authors", "facts", "LACE greedy P/R/F1", "time", "Dedupalog P/R/F1", "time")
	for _, scale := range scales {
		cfg := workload.DefaultConfig(seedOr(13))
		cfg.Authors = scale
		cfg.Papers = scale + scale/2
		cfg.Conferences = scale/4 + 2
		ds, err := workload.Generate(cfg)
		if err != nil {
			return err
		}
		snap, err := lace.NewSnapshot(ds.DB, ds.Spec, ds.Sims, engineOpts())
		if err != nil {
			return err
		}
		var sol *eqrel.Partition
		laceTime, err := timeIt(func() error {
			var ok bool
			var err error
			sol, ok, err = snap.Engine().GreedySolutionCtx(context.Background())
			if err == nil && !ok {
				return fmt.Errorf("greedy inconsistent")
			}
			return err
		})
		if err != nil {
			return err
		}
		lq := workload.Score(sol, ds.Truth)
		var base *eqrel.Partition
		baseTime, err := timeIt(func() error {
			var err error
			base, err = dedupalog.Cluster(ds.DB, dedupalog.FromLACE(ds.Spec), ds.Sims, seedOr(13))
			return err
		})
		if err != nil {
			return err
		}
		bq := workload.Score(base, ds.Truth)
		fmt.Printf("%-8d %-10d | %.2f/%.2f/%-12.2f %-10v | %.2f/%.2f/%-12.2f %v\n",
			scale, ds.DB.NumFacts(),
			lq.Precision, lq.Recall, lq.F1, laceTime.Round(time.Millisecond),
			bq.Precision, bq.Recall, bq.F1, baseTime.Round(time.Millisecond))
	}
	return nil
}

// e14FDOnly: the FD-only encoding is just as hard.
func e14FDOnly() error {
	rng := rand.New(rand.NewSource(seedOr(14)))
	fmt.Printf("%-6s %-14s %s\n", "n", "time", "agrees with SAT")
	for _, n := range []int{4, 6, 8} {
		phi := reductions.Random3CNF(rng, n, int(4.26*float64(n)+0.5))
		_, want := phi.Satisfiable()
		d, spec, err := reductions.ExistenceInstanceFD(phi)
		if err != nil {
			return err
		}
		if !spec.FDsOnly() {
			return fmt.Errorf("spec not FD-only")
		}
		eng, err := core.New(d, spec, nil, engineOpts())
		if err != nil {
			return err
		}
		var got bool
		dt, err := timeIt(func() error {
			var err error
			_, got, err = eng.ExistenceCtx(context.Background())
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-6d %-14v %v\n", n, dt.Round(time.Microsecond), got == want)
	}
	return nil
}

// e15Extensions exercises the three Section 7 future-work features.
func e15Extensions() error {
	// Quantitative: weighting sigma3 selects the λ-solution uniquely.
	f := fixtures.New()
	snap, err := lace.NewSnapshot(f.DB, f.Spec, f.Sims, engineOpts())
	if err != nil {
		return err
	}
	for _, r := range f.Spec.Rules {
		if r.Name == "sigma3" {
			r.Weight = 10
		}
	}
	best, err := snap.Engine().BestSolutions(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("weighted best maximal solutions: %d (score %.1f)\n", len(best), best[0].Score)

	// Explanations: classify the named pairs of Example 6.
	named := [][2]string{{"p2", "p3"}, {"a6", "a7"}, {"c3", "c4"}}
	pairs := make([]eqrel.Pair, len(named))
	for i, pr := range named {
		pairs[i] = eqrel.MakePair(f.Const(pr[0]), f.Const(pr[1]))
	}
	xs, err := snap.ExplainMergesCtx(context.Background(), pairs)
	if err != nil {
		return err
	}
	for i, x := range xs {
		pr := named[i]
		fmt.Printf("explain (%s,%s): %s", pr[0], pr[1], x.Status)
		if len(x.BlockedBy) > 0 {
			fmt.Printf(" (blocked by %s)", strings.Join(x.BlockedBy, ", "))
		}
		fmt.Println()
	}

	// Local merges: the ISWC scenario via the combined pipeline.
	schema := lace.NewSchema()
	schema.MustAdd("Pub", "id", "venue", "area")
	d := lace.NewDatabase(schema, nil)
	d.MustInsert("Pub", "p1", "ISWC", "semweb")
	d.MustInsert("Pub", "p2", "Int Semantic Web Conf", "semweb")
	d.MustInsert("Pub", "p3", "ISWC", "wearables")
	d.MustInsert("Pub", "p4", "Int Symp on Wearable Computing", "wearables")
	abbrev := lace.NewSimTable("abbrev").
		Add("ISWC", "Int Semantic Web Conf").
		Add("ISWC", "Int Symp on Wearable Computing")
	sims := lace.DefaultSims()
	sims.Register(abbrev)
	spec, err := lace.ParseSpec(`soft g1: Pub(x,v,a), Pub(y,v,a) ~> EQ(x,y).`,
		schema, d.Interner(), sims)
	if err != nil {
		return err
	}
	lr := []*lace.LocalRule{{
		Kind: rules.Soft, Name: "expand",
		Body: []cq.Atom{
			cq.Rel("Pub", cq.Var("x"), cq.Var("v"), cq.Var("a")),
			cq.Rel("Pub", cq.Var("y"), cq.Var("w"), cq.Var("a")),
			cq.Sim("abbrev", cq.Var("v"), cq.Var("w")),
			cq.Neq(cq.Var("x"), cq.Var("y")),
		},
		Left: lace.LocalTarget{Atom: 0, Col: 1}, Right: lace.LocalTarget{Atom: 1, Col: 1},
	}}
	res, err := lace.ResolveWithLocalMerges(d, lr, spec, sims)
	if err != nil {
		return err
	}
	p1, _ := d.Interner().Lookup("p1")
	p2, _ := d.Interner().Lookup("p2")
	sem := lace.Occurrence{Rel: "Pub", Row: 1, Col: 1}
	wear := lace.Occurrence{Rel: "Pub", Row: 3, Col: 1}
	equated, err := res.Resolver.Merged(sem, wear)
	if err != nil {
		return err
	}
	fmt.Printf("local merges: %d cells, rounds %d, p1~p2 globally: %v, expansions equated: %v (must be false)\n",
		res.Resolver.MergeCount(), res.Rounds, res.Global.Same(p1, p2), equated)
	return nil
}

// e17Shards is the sharded-resolution scaling run (EXPERIMENTS.md E20):
// Zipf-skewed bibliographic instances of 10^3..10^5 entities resolved
// exactly by coupled components. At the smallest size the monolithic
// engine resolves the same instance, and its certain and possible
// merges must equal the sharded ones. Set LACE_E17_HUGE=1 to append a
// 10^6-entity row (hours of single-core wall-clock).
func e17Shards() error {
	sizes := []int{1_000, 10_000, 100_000}
	if *quick {
		sizes = []int{1_000, 4_000}
	}
	if os.Getenv("LACE_E17_HUGE") == "1" {
		sizes = append(sizes, 1_000_000)
	}

	fmt.Printf("%-9s %-8s %-8s %-7s %-9s %-9s %-7s %-7s %-11s %-8s %s\n",
		"entities", "facts", "shards", "rounds", "solves", "p50/p99", "largest", "frac", "time", "F1", "peak RSS")
	// The sharded merges of the smallest instance, for the monolithic
	// differential check after the sweep.
	var pm0, cm0 []eqrel.Pair
	for i, n := range sizes {
		ds, err := workload.GenerateScale(workload.DefaultScaleConfig(seedOr(20), n))
		if err != nil {
			return err
		}
		snap, err := lace.NewSnapshot(ds.DB, ds.Spec, ds.Sims, engineOpts())
		if err != nil {
			return err
		}
		var pm []eqrel.Pair
		dt, err := timeIt(func() error {
			var err error
			pm, err = snap.PossibleMergesCtx(context.Background())
			return err
		})
		if err != nil {
			return err
		}
		cm, err := snap.CertainMergesCtx(context.Background())
		if err != nil {
			return err
		}
		st, err := snap.Stats()
		if err != nil {
			return err
		}
		sizesSorted := append([]int(nil), st.Sizes...)
		sort.Ints(sizesSorted)
		p50, p99, largest, total := pctiles(sizesSorted)
		frac := 0.0
		if total > 0 {
			frac = float64(largest) / float64(total)
		}
		// Merge quality against the generator's ground truth: certain
		// merges as the conservative resolution, scored P/R/F1.
		sol := eqrel.New(ds.DB.Interner().Size())
		for _, p := range cm {
			sol.Union(p.A, p.B)
		}
		q := workload.Score(sol, ds.Truth)
		fmt.Printf("%-9d %-8d %-8d %-7d %-9d %-9s %-7d %-7.3f %-11v %-8.2f %s\n",
			n, ds.DB.NumFacts(), st.Shards, st.Rounds,
			st.Solves,
			fmt.Sprintf("%d/%d", p50, p99), largest, frac,
			dt.Round(time.Millisecond), q.F1, peakRSS())
		if i == 0 {
			pm0, cm0 = pm, cm
		}
	}
	fmt.Println("peak RSS is the process high-water mark (VmHWM): monotone across the sweep,")
	fmt.Println("so each row bounds the memory of its own run from above.")

	// Monolithic differential check at the smallest size, after the
	// sweep so its heap does not inflate the rows' RSS column. The
	// instance is generated again (same seed, same constant ids) so the
	// monolithic run starts from a cold similarity memo.
	ds, err := workload.GenerateScale(workload.DefaultScaleConfig(seedOr(20), sizes[0]))
	if err != nil {
		return err
	}
	mono, err := core.New(ds.DB, ds.Spec, ds.Sims, engineOpts())
	if err != nil {
		return err
	}
	var mpm, mcm []eqrel.Pair
	monoTime, err := timeIt(func() error {
		var err error
		if mpm, err = mono.PossibleMergesCtx(context.Background()); err != nil {
			return err
		}
		mcm, err = mono.CertainMergesCtx(context.Background())
		return err
	})
	if err != nil {
		return fmt.Errorf("monolithic baseline, n=%d: %w", sizes[0], err)
	}
	if !slices.Equal(mpm, pm0) || !slices.Equal(mcm, cm0) {
		return fmt.Errorf("monolithic baseline, n=%d: merges diverge from sharded (possible %d vs %d, certain %d vs %d)",
			sizes[0], len(mpm), len(pm0), len(mcm), len(cm0))
	}
	fmt.Printf("\nmonolithic baseline, n=%d: %d possible and %d certain merges, equal to sharded, in %v\n",
		sizes[0], len(mpm), len(mcm), monoTime.Round(time.Millisecond))
	return nil
}

// pctiles returns the p50 and p99 component sizes, the largest
// component, and the total sharded-constant count of a sorted size
// histogram.
func pctiles(sorted []int) (p50, p99, largest, total int) {
	if len(sorted) == 0 {
		return 0, 0, 0, 0
	}
	for _, s := range sorted {
		total += s
	}
	p50 = sorted[len(sorted)/2]
	p99 = sorted[(len(sorted)*99)/100]
	largest = sorted[len(sorted)-1]
	return p50, p99, largest, total
}

// peakRSS reads VmHWM — the process's peak resident set — from
// /proc/self/status, falling back to the Go runtime's Sys figure on
// non-Linux hosts.
func peakRSS() string {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				return strings.Join(strings.Fields(strings.TrimPrefix(line, "VmHWM:")), " ")
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return fmt.Sprintf("%d kB (runtime.Sys)", ms.Sys/1024)
}

// e16Blocking measures the Section 7 blocking optimization: building
// the approx similarity extension with token blocking vs all pairs.
func e16Blocking() error {
	fmt.Printf("%-8s %-12s %-8s %-12s %-12s %-10s %s\n",
		"values", "scheme", "matches", "candidates", "total", "reduction", "recall")
	for _, n := range []int{100, 300, 600} {
		cfg := workload.DefaultConfig(seedOr(16))
		cfg.Authors, cfg.Papers, cfg.Conferences = n/2, n/2, n/10+2
		ds, err := workload.Generate(cfg)
		if err != nil {
			return err
		}
		// Collect every string value from the sim-attribute columns.
		var vals []string
		in := ds.DB.Interner()
		for _, relCol := range [][2]interface{}{{"Author", 1}, {"Paper", 1}, {"Conference", 1}} {
			for _, tup := range ds.DB.Tuples(relCol[0].(string)) {
				vals = append(vals, in.Name(tup[relCol[1].(int)]))
			}
		}
		brute := blocking.BruteTable("approx", vals, sim.NormalizedLevenshtein, 0.82)
		for _, scheme := range []struct {
			name string
			fn   blocking.KeyFunc
		}{
			{"tokens", blocking.Tokens},
			{"tok+4grams", blocking.Union(blocking.Tokens, blocking.QGrams(4))},
		} {
			blocked, st := blocking.BuildTable("approx", vals, sim.NormalizedLevenshtein, 0.82, scheme.fn, rec)
			fmt.Printf("%-8d %-12s %-8d %-12d %-12d %-10.3f %.3f\n",
				st.Values, scheme.name, st.Matches, st.CandidatePairs, st.TotalPairs,
				st.ReductionRatio(), blocking.Recall(blocked, brute))
		}
	}
	fmt.Println("single-token values (emails) defeat token blocking; adding q-grams restores")
	fmt.Println("full recall while still skipping the vast majority of comparisons.")
	return nil
}
