// Quickstart: declare a schema, load facts, write a two-rule LACE
// specification, and query certain merges and certain answers. Run:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	lace "repro"
)

func main() {
	ctx := context.Background()
	// 1. Schema and data: person records with emails and a shared-phone
	// relation. p1/p2 differ by an email typo; p3 is unrelated.
	schema := lace.NewSchema()
	schema.MustAdd("Person", "id", "email")
	schema.MustAdd("Phone", "id", "number")
	d := lace.NewDatabase(schema, nil)
	d.MustInsert("Person", "p1", "ann.smith@example.org")
	d.MustInsert("Person", "p2", "ann.smith@exampel.org")
	d.MustInsert("Person", "p3", "bob@other.net")
	d.MustInsert("Phone", "p1", "555-0100")
	d.MustInsert("Phone", "p2", "555-0100")
	d.MustInsert("Phone", "p3", "555-0199")

	// 2. Specification: merge people with similar emails (soft), and
	// never let two distinct numbers attach to one merged person
	// (denial). lev08 is the built-in normalized-Levenshtein >= 0.8
	// predicate.
	sims := lace.DefaultSims()
	spec, err := lace.ParseSpec(`
		soft similarEmail: Person(x,e), Person(y,e2), lev08(e,e2) ~> EQ(x,y).
		denial onePhone: Phone(x,n), Phone(x,n2), n != n2.
	`, schema, d.Interner(), sims)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Solve. The snapshot answers every question of the paper; it
	// freezes the database.
	snap, err := lace.NewSnapshot(d, spec, sims, lace.Options{})
	if err != nil {
		log.Fatal(err)
	}
	merges, err := snap.CertainMergesCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("certain merges:")
	for _, m := range merges {
		fmt.Printf("  %s = %s\n", d.Interner().Name(m.A), d.Interner().Name(m.B))
	}

	// 4. Certain answers: which ids certainly share a phone with p1?
	q, err := lace.ParseQuery(`(y) : Phone(x, n), Phone(y, n)`, schema, d.Interner(), sims)
	if err != nil {
		log.Fatal(err)
	}
	ans, err := snap.CertainAnswersCtx(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ids sharing a phone number with someone (certainly):")
	for _, t := range ans {
		fmt.Printf("  %s\n", d.Interner().Name(t[0]))
	}

	// 5. Justify the merge, on the snapshot's engine.
	maximal, err := snap.MaximalSolutionsCtx(ctx)
	if err != nil || len(maximal) == 0 {
		log.Fatalf("no maximal solutions: %v", err)
	}
	p1, _ := d.Interner().Lookup("p1")
	p2, _ := d.Interner().Lookup("p2")
	j, err := snap.Engine().Justify(maximal[0], p1, p2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("justification for p1 = p2:")
	fmt.Print(j.Format(d.Interner()))
}
