// Extensions demonstrates the three Section 7 future-work features this
// repository implements on top of the core framework:
//
//  1. quantitative extensions — weighted soft rules, negative-evidence
//     NEQ rules, and evidence-scored selection among maximal solutions;
//  2. explanation facilities — classifying a pair as certain / possible
//     / impossible with a justification, witness pair, or obstruction;
//  3. local merges — matching-dependency-style rules over value
//     occurrences, interleaved with global resolution.
//
// Run: go run ./examples/extensions
package main

import (
	"context"
	"fmt"
	"log"

	lace "repro"
	"repro/internal/cq"
	"repro/internal/fixtures"
	"repro/internal/rules"
)

func main() {
	quantitative()
	explanations()
	localMerges()
}

// quantitative weighs the Figure 1 rules: boosting σ3 makes the
// λ-containing maximal solution the unique best one.
func quantitative() {
	fmt.Println("== 1. Quantitative extension: weighted evidence ==")
	f := fixtures.New()
	snap, err := lace.NewSnapshot(f.DB, f.Spec, f.Sims, lace.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range f.Spec.Rules {
		if r.Name == "sigma3" {
			r.Weight = 10 // trust shared-author title evidence strongly
		}
	}
	best, err := snap.Engine().BestSolutions(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range best {
		fmt.Printf("best maximal solution (score %.1f): %s\n", b.Score, b.E.Format(f.DB.Interner()))
	}
	fmt.Println()
}

// explanations classifies three pairs of the running example.
func explanations() {
	fmt.Println("== 2. Explanation facilities: merge status across MaxSol ==")
	f := fixtures.New()
	snap, err := lace.NewSnapshot(f.DB, f.Spec, f.Sims, lace.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, pr := range [][2]string{{"p2", "p3"}, {"a6", "a7"}, {"c3", "c4"}, {"a1", "a4"}} {
		x, err := snap.Engine().ExplainMergeCtx(context.Background(), f.Const(pr[0]), f.Const(pr[1]))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(x.Format(f.DB.Interner()))
	}
	fmt.Println()
}

// localMerges runs the ISWC scenario: local value-occurrence merges
// normalize abbreviations per context, enabling a global merge, while
// the two expansions of "ISWC" are never equated.
func localMerges() {
	fmt.Println("== 3. Local merges: the ISWC scenario of Section 6.3 ==")
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

	// Global: same normalized venue and area → same publication.
	spec, err := lace.ParseSpec(`soft g1: Pub(x,v,a), Pub(y,v,a) ~> EQ(x,y).`,
		schema, d.Interner(), sims)
	if err != nil {
		log.Fatal(err)
	}
	// Local: abbreviation-similar venues in the same area merge as
	// value occurrences (not as global constants!).
	localRules := []*lace.LocalRule{{
		Kind: rules.Soft,
		Name: "expand",
		Body: []cq.Atom{
			cq.Rel("Pub", cq.Var("x"), cq.Var("v"), cq.Var("a")),
			cq.Rel("Pub", cq.Var("y"), cq.Var("w"), cq.Var("a")),
			cq.Sim("abbrev", cq.Var("v"), cq.Var("w")),
			cq.Neq(cq.Var("x"), cq.Var("y")),
		},
		Left:  lace.LocalTarget{Atom: 0, Col: 1},
		Right: lace.LocalTarget{Atom: 1, Col: 1},
	}}

	result, err := lace.ResolveWithLocalMerges(d, localRules, spec, sims)
	if err != nil {
		log.Fatal(err)
	}
	in := d.Interner()
	fmt.Printf("rounds to joint fixpoint: %d, consistent: %v\n", result.Rounds, result.Consistent)
	fmt.Printf("local cell merges: %d cells in nontrivial classes\n", result.Resolver.MergeCount())

	show := func(o lace.Occurrence) string {
		v, err := result.Resolver.ValueOf(o)
		if err != nil {
			log.Fatal(err)
		}
		return in.Name(v)
	}
	fmt.Printf("venue of p1 normalizes to %q; of p3 to %q\n",
		show(lace.Occurrence{Rel: "Pub", Row: 0, Col: 1}),
		show(lace.Occurrence{Rel: "Pub", Row: 2, Col: 1}))
	semExp := lace.Occurrence{Rel: "Pub", Row: 1, Col: 1}
	wearExp := lace.Occurrence{Rel: "Pub", Row: 3, Col: 1}
	merged, err := result.Resolver.Merged(semExp, wearExp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("the two expansions equated: %v (must stay false — the point of local semantics)\n", merged)
	p1, _ := in.Lookup("p1")
	p2, _ := in.Lookup("p2")
	fmt.Printf("global merge of publications p1, p2 (enabled by local normalization): %v\n",
		result.Global.Same(p1, p2))
}
