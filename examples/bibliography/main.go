// Bibliography reproduces the paper's running example end to end
// (Figure 1, Examples 1-7): it prints the two maximal solutions M1 and
// M2, classifies the named merges α…κ as certain / possible /
// impossible, shows justifications for ζ and κ, and cross-checks the
// native engine against the ASP encoding of Section 5. Run:
//
//	go run ./examples/bibliography
package main

import (
	"context"
	"fmt"
	"log"
	"slices"

	lace "repro"
	"repro/internal/eqrel"
	"repro/internal/fixtures"
)

func main() {
	ctx := context.Background()
	f := fixtures.New()
	in := f.DB.Interner()
	snap, err := lace.NewSnapshot(f.DB, f.Spec, f.Sims, lace.Options{})
	if err != nil {
		log.Fatal(err)
	}
	// The snapshot answers the paper's questions; its engine lists the
	// solution lattice and justifies merges.
	eng := snap.Engine()

	fmt.Println("== Figure 1: database Dex ==")
	fmt.Printf("%d facts over %d relations\n\n", f.DB.NumFacts(), len(f.Schema.Relations()))

	fmt.Println("== Specification Σex ==")
	fmt.Print(fixtures.SpecText)

	fmt.Println("\n== Example 4: maximal solutions ==")
	maximal, err := snap.MaximalSolutionsCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for i, m := range maximal {
		fmt.Printf("M%d: %s\n", i+1, m.Format(in))
	}

	named := map[string][2]string{
		"alpha (a1,a2)": {"a1", "a2"},
		"beta  (a2,a3)": {"a2", "a3"},
		"chi   (a6,a7)": {"a6", "a7"},
		"zeta  (c2,c3)": {"c2", "c3"},
		"eta   (c3,c4)": {"c3", "c4"},
		"theta (p2,p3)": {"p2", "p3"},
		"lambda(p4,p5)": {"p4", "p5"},
		"kappa (a4,a5)": {"a4", "a5"},
	}
	fmt.Println("\n== Example 6: merge classification ==")
	certain, err := snap.CertainMergesCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	possible, err := snap.PossibleMergesCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	order := []string{"alpha (a1,a2)", "beta  (a2,a3)", "zeta  (c2,c3)",
		"theta (p2,p3)", "kappa (a4,a5)", "chi   (a6,a7)", "lambda(p4,p5)", "eta   (c3,c4)"}
	for _, name := range order {
		pr := named[name]
		p := eqrel.MakePair(f.Const(pr[0]), f.Const(pr[1]))
		status := "impossible"
		switch {
		case slices.Contains(certain, p):
			status = "CERTAIN"
		case slices.Contains(possible, p):
			status = "possible"
		}
		fmt.Printf("  %-14s %s\n", name, status)
	}

	fmt.Println("\n== Example 5: justification of zeta = (c2,c3) ==")
	m1 := maximal[0]
	j, err := eng.Justify(m1, f.Const("c2"), f.Const("c3"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(j.Format(in))

	fmt.Println("\n== Recursive justification of kappa = (a4,a5) ==")
	j, err = eng.Justify(m1, f.Const("a4"), f.Const("a5"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(j.Format(in))

	fmt.Println("\n== Section 5: ASP cross-check (Theorem 10) ==")
	solver, err := lace.NewASPSolver(f.DB, f.Spec, f.Sims, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	nativeCount := 0
	if err := eng.SolutionsCtx(ctx, func(*eqrel.Partition) bool { nativeCount++; return false }); err != nil {
		log.Fatal(err)
	}
	aspCount := 0
	if err := solver.Solutions(func(*eqrel.Partition) bool { aspCount++; return true }); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("native solutions: %d, stable models of Pi_Sol: %d\n", nativeCount, aspCount)
	aspMax := 0
	if err := solver.MaximalSolutions(func(*eqrel.Partition) bool { aspMax++; return true }); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("native maximal: %d, subset-maximal eq-projections: %d\n", len(maximal), aspMax)

	prog, err := lace.EncodeASP(f.DB, f.Spec, f.Sims)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Pi_Sol has %d rules (clingo-compatible text via String())\n", len(prog.Rules))
}
