package lace

// bench_test.go regenerates the paper's evaluation artifacts as Go
// benchmarks — one benchmark (family) per table/figure row, as indexed
// in DESIGN.md and EXPERIMENTS.md:
//
//	Figure 1            BenchmarkFigure1RunningExample, BenchmarkJustifyKappa
//	Table 1 Rec         BenchmarkTable1Rec/n=...           (polynomial)
//	Table 1 Existence   BenchmarkTable1ExistenceGeneral    (NP)
//	                    BenchmarkTable1ExistenceRestricted (P, Theorem 8)
//	                    BenchmarkTable1ExistenceFDOnly     (NP, Theorem 12)
//	Table 1 MaxRec      BenchmarkTable1MaxRecGeneral / ...Restricted
//	Table 1 CertMerge   BenchmarkTable1CertMerge           (Pi^p_2)
//	Table 1 PossMerge   BenchmarkTable1PossMerge           (NP)
//	Table 1 Cert/PossAnswer  BenchmarkTable1CertAnswer / ...PossAnswer
//	Theorem 9           BenchmarkTheorem9HardOnly / ...DenialFree
//	Theorem 10          BenchmarkASPGround / BenchmarkASPSolve / BenchmarkNativeSolve
//	Theorem 11          BenchmarkTheorem11LACE / ...EL
//	Proposition 1       BenchmarkProposition1
//	Workload (Sec. 7)   BenchmarkWorkloadLACE / ...Dedupalog
//
// Run with: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/dedupalog"
	"repro/internal/el"
	"repro/internal/eqrel"
	"repro/internal/fixtures"
	"repro/internal/graphs"
	"repro/internal/reductions"
	"repro/internal/rules"
	"repro/internal/workload"
)

// BenchmarkFigure1RunningExample computes MaxSol and the certain merge
// set of the paper's running example.
func BenchmarkFigure1RunningExample(b *testing.B) {
	f := fixtures.New()
	for i := 0; i < b.N; i++ {
		eng, err := core.New(f.DB, f.Spec, f.Sims, Options{})
		if err != nil {
			b.Fatal(err)
		}
		ms, err := eng.MaximalSolutionsCtx(context.Background())
		if err != nil || len(ms) != 2 {
			b.Fatalf("maximal = %d, err %v", len(ms), err)
		}
		cm, err := eng.CertainMergesCtx(context.Background())
		if err != nil || len(cm) != 6 {
			b.Fatalf("certain = %d, err %v", len(cm), err)
		}
	}
}

// BenchmarkJustifyKappa replays and justifies the recursive merge κ.
func BenchmarkJustifyKappa(b *testing.B) {
	f := fixtures.New()
	eng, err := core.New(f.DB, f.Spec, f.Sims, Options{})
	if err != nil {
		b.Fatal(err)
	}
	ms, err := eng.MaximalSolutionsCtx(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Justify(ms[0], f.Const("a4"), f.Const("a5")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Rec: the P-complete Rec row, polynomial scaling on
// Horn-All chains.
func BenchmarkTable1Rec(b *testing.B) {
	for _, n := range []int{20, 40, 80} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			h := reductions.ChainHorn(n)
			d, spec, ev, err := reductions.HornAllInstance(h)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := core.New(d, spec, nil, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, err := eng.IsSolution(ev)
				if err != nil || !ok {
					b.Fatalf("Rec failed: %v %v", ok, err)
				}
			}
		})
	}
}

// satInstance returns a deterministic hard random 3CNF.
func satInstance(n int, seed int64) reductions.CNF {
	rng := rand.New(rand.NewSource(seed))
	return reductions.Random3CNF(rng, n, int(4.26*float64(n)+0.5))
}

// BenchmarkTable1ExistenceGeneral: the NP-complete Existence row.
func BenchmarkTable1ExistenceGeneral(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			phi := satInstance(n, 400+int64(n))
			d, spec, err := reductions.ExistenceInstance(phi)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := core.New(d, spec, nil, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := eng.ExistenceCtx(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// restrictedEngine builds an inequality-free workload engine.
func restrictedEngine(b *testing.B, scale int) *core.Engine {
	b.Helper()
	cfg := workload.DefaultConfig(9)
	cfg.Authors, cfg.Papers, cfg.Conferences = scale, scale, scale/5+2
	cfg.DirtyWrote = 0
	ds, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	spec := &Spec{Rules: ds.Spec.Rules}
	for _, dn := range ds.Spec.Denials {
		if !dn.HasNeq() {
			spec.Denials = append(spec.Denials, dn)
		}
	}
	eng, err := core.New(ds.DB, spec, ds.Sims, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkTable1ExistenceRestricted: the P-complete restricted
// Existence (Theorem 8).
func BenchmarkTable1ExistenceRestricted(b *testing.B) {
	for _, scale := range []int{20, 40, 80} {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			eng := restrictedEngine(b, scale)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.ExistenceCtx(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1ExistenceFDOnly: Theorem 12 — still NP-hard with FDs
// only.
func BenchmarkTable1ExistenceFDOnly(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			phi := satInstance(n, 1200+int64(n))
			d, spec, err := reductions.ExistenceInstanceFD(phi)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := core.New(d, spec, nil, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := eng.ExistenceCtx(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1MaxRecGeneral: the coNP-complete MaxRec row.
func BenchmarkTable1MaxRecGeneral(b *testing.B) {
	for _, n := range []int{3, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			phi := satInstance(n, 300+int64(n))
			d, spec, err := reductions.MaxRecInstance(phi)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := core.New(d, spec, nil, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.IsMaximalSolution(context.Background(), eng.Identity()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1MaxRecRestricted: the P-complete restricted MaxRec
// (Theorem 8 algorithm).
func BenchmarkTable1MaxRecRestricted(b *testing.B) {
	for _, scale := range []int{20, 40} {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			eng := restrictedEngine(b, scale)
			sol, ok, err := eng.GreedySolutionCtx(context.Background())
			if err != nil || !ok {
				b.Fatalf("greedy: %v %v", ok, err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.IsMaximalSolution(context.Background(), sol); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1CertMerge: the Π^p_2-complete CertMerge row.
func BenchmarkTable1CertMerge(b *testing.B) {
	for _, sh := range [][2]int{{2, 2}, {3, 2}} {
		b.Run(fmt.Sprintf("x=%d_y=%d", sh[0], sh[1]), func(b *testing.B) {
			rng := rand.New(rand.NewSource(600))
			q := reductions.RandomQBF(rng, sh[0], sh[1], 3)
			d, spec, _, _, err := reductions.CertMergeInstance(q)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := core.New(d, spec, nil, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.CertainMergesCtx(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1PossMerge: the NP-complete PossMerge row.
func BenchmarkTable1PossMerge(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			phi := satInstance(n, 500+int64(n))
			d, spec, c1, c2, err := reductions.PossMergeInstance(phi)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := core.New(d, spec, nil, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.IsPossibleMergeCtx(context.Background(), c1, c2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1PossAnswer / BenchmarkTable1CertAnswer: the query rows.
func BenchmarkTable1PossAnswer(b *testing.B) {
	phi := satInstance(5, 700)
	d, spec, q, err := reductions.PossAnswerInstance(phi)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.New(d, spec, nil, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.IsPossibleAnswerCtx(context.Background(), q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1CertAnswer(b *testing.B) {
	rng := rand.New(rand.NewSource(800))
	qbf := reductions.RandomQBF(rng, 2, 3, 3)
	d, spec, q, err := reductions.CertAnswerInstance(qbf)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.New(d, spec, nil, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.CertainAnswersCtx(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorem9HardOnly / DenialFree: the tractable classes.
func BenchmarkTheorem9HardOnly(b *testing.B) {
	for _, scale := range []int{40, 80} {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			cfg := workload.DefaultConfig(12)
			cfg.Authors, cfg.Papers, cfg.Conferences = scale, scale, scale/5+2
			cfg.DirtyWrote = 0
			ds, err := workload.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			spec := &Spec{Rules: ds.Spec.HardRules()}
			eng, err := core.New(ds.DB, spec, ds.Sims, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.MaximalSolutionsCtx(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTheorem9DenialFree(b *testing.B) {
	for _, scale := range []int{40, 80} {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			cfg := workload.DefaultConfig(12)
			cfg.Authors, cfg.Papers, cfg.Conferences = scale, scale, scale/5+2
			cfg.DirtyWrote = 0
			ds, err := workload.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			spec := &Spec{Rules: ds.Spec.Rules}
			eng, err := core.New(ds.DB, spec, ds.Sims, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.MaximalSolutionsCtx(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkASPGround / BenchmarkASPSolve / BenchmarkNativeSolve: the
// Theorem 10 pipeline against the native engine on Figure 1.
func BenchmarkASPGround(b *testing.B) {
	f := fixtures.New()
	for i := 0; i < b.N; i++ {
		if _, err := NewASPSolver(f.DB, f.Spec, f.Sims, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkASPSolve(b *testing.B) {
	f := fixtures.New()
	solver, err := NewASPSolver(f.DB, f.Spec, f.Sims, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		solver.Solutions(func(*eqrel.Partition) bool { count++; return true })
		if count != 6 {
			b.Fatalf("ASP solutions = %d", count)
		}
	}
}

func BenchmarkNativeSolve(b *testing.B) {
	f := fixtures.New()
	eng, err := core.New(f.DB, f.Spec, f.Sims, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := eng.SolutionsCtx(context.Background(), func(*eqrel.Partition) bool { count++; return false }); err != nil {
			b.Fatal(err)
		}
		if count != 6 {
			b.Fatalf("native solutions = %d", count)
		}
	}
}

// BenchmarkTheorem11LACE / EL: the Section 6 separation experiment.
func BenchmarkTheorem11LACE(b *testing.B) {
	g := graphs.DGBC(3, 2)
	d := g.Database()
	spec, err := graphs.SigmaSG(d.Schema())
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.New(d, spec, nil, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.CertainMergesCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTheorem11EL(b *testing.B) {
	g := graphs.DGBC(3, 2)
	d := g.Database()
	ev, err := el.NewEvaluator(el.SameGenerationSpec("link"), d)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.CertainLinks(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProposition1: solving under the hard-to-soft transformation.
func BenchmarkProposition1(b *testing.B) {
	f := fixtures.New()
	tr := f.Spec.Prop1Transform()
	eng, err := core.New(f.DB, tr, f.Sims, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := eng.SolutionsCtx(context.Background(), func(*eqrel.Partition) bool { count++; return false }); err != nil {
			b.Fatal(err)
		}
		if count != 6 {
			b.Fatalf("transformed solutions = %d", count)
		}
	}
}

// BenchmarkWorkloadLACE / Dedupalog: end-to-end quality/throughput
// comparison (Section 7's envisioned experiments).
func BenchmarkWorkloadLACE(b *testing.B) {
	for _, scale := range []int{20, 40} {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			cfg := workload.DefaultConfig(13)
			cfg.Authors, cfg.Papers, cfg.Conferences = scale, scale+scale/2, scale/4+2
			ds, err := workload.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := core.New(ds.DB, ds.Spec, ds.Sims, Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, ok, err := eng.GreedySolutionCtx(context.Background())
				if err != nil || !ok {
					b.Fatalf("greedy: %v %v", ok, err)
				}
				q := workload.Score(sol, ds.Truth)
				if q.F1 < 0.9 {
					b.Fatalf("quality regression: %v", q)
				}
			}
		})
	}
}

func BenchmarkWorkloadDedupalog(b *testing.B) {
	for _, scale := range []int{20, 40} {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			cfg := workload.DefaultConfig(13)
			cfg.Authors, cfg.Papers, cfg.Conferences = scale, scale+scale/2, scale/4+2
			ds, err := workload.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			spec := dedupalog.FromLACE(ds.Spec)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dedupalog.Cluster(ds.DB, spec, ds.Sims, 13); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLocalMergeResolve: the Section 7 local-merges extension —
// the ISWC pipeline to its joint local/global fixpoint.
func BenchmarkLocalMergeResolve(b *testing.B) {
	schema := NewSchema()
	schema.MustAdd("Pub", "id", "venue", "area")
	d := NewDatabase(schema, nil)
	d.MustInsert("Pub", "p1", "ISWC", "semweb")
	d.MustInsert("Pub", "p2", "Int Semantic Web Conf", "semweb")
	d.MustInsert("Pub", "p3", "ISWC", "wearables")
	d.MustInsert("Pub", "p4", "Int Symp on Wearable Computing", "wearables")
	abbrev := NewSimTable("abbrev").
		Add("ISWC", "Int Semantic Web Conf").
		Add("ISWC", "Int Symp on Wearable Computing")
	sims := DefaultSims()
	sims.Register(abbrev)
	spec, err := ParseSpec(`soft g1: Pub(x,v,a), Pub(y,v,a) ~> EQ(x,y).`,
		schema, d.Interner(), sims)
	if err != nil {
		b.Fatal(err)
	}
	lr := []*LocalRule{{
		Kind: rules.Soft, Name: "expand",
		Body: []cq.Atom{
			cq.Rel("Pub", cq.Var("x"), cq.Var("v"), cq.Var("a")),
			cq.Rel("Pub", cq.Var("y"), cq.Var("w"), cq.Var("a")),
			cq.Sim("abbrev", cq.Var("v"), cq.Var("w")),
			cq.Neq(cq.Var("x"), cq.Var("y")),
		},
		Left: LocalTarget{Atom: 0, Col: 1}, Right: LocalTarget{Atom: 1, Col: 1},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ResolveWithLocalMerges(d, lr, spec, sims)
		if err != nil || !res.Consistent {
			b.Fatalf("resolve: %+v %v", res, err)
		}
	}
}

// BenchmarkExplainMerge: the Section 7 explanation facility on the
// running example's η (the impossible pair needing the full analysis).
func BenchmarkExplainMerge(b *testing.B) {
	f := fixtures.New()
	eng, err := core.New(f.DB, f.Spec, f.Sims, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := eng.ExplainMergeCtx(context.Background(), f.Const("c3"), f.Const("c4"))
		if err != nil || x.Status != core.Impossible {
			b.Fatalf("explain: %+v %v", x, err)
		}
	}
}
