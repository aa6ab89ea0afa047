package lace

// lace_test.go exercises the public facade end to end — the API a
// downstream user consumes — independent of the internal tests.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/eqrel"
)

// facadeSetup builds the quickstart scenario through the facade only.
func facadeSetup(t *testing.T) (*Database, *Spec, *SimRegistry, *EpochSnapshot) {
	t.Helper()
	schema := NewSchema()
	schema.MustAdd("Person", "id", "email")
	schema.MustAdd("Phone", "id", "number")
	d := NewDatabase(schema, nil)
	d.MustInsert("Person", "p1", "ann.smith@example.org")
	d.MustInsert("Person", "p2", "ann.smith@exampel.org")
	d.MustInsert("Person", "p3", "bob@other.net")
	d.MustInsert("Phone", "p1", "555-0100")
	d.MustInsert("Phone", "p2", "555-0100")
	d.MustInsert("Phone", "p3", "555-0199")
	sims := DefaultSims()
	spec, err := ParseSpec(`
		soft similar: Person(x,e), Person(y,e2), lev08(e,e2) ~> EQ(x,y).
		denial onePhone: Phone(x,n), Phone(x,n2), n != n2.
	`, schema, d.Interner(), sims)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := NewSnapshot(d, spec, sims, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d, spec, sims, snap
}

func TestFacadeQuickstart(t *testing.T) {
	d, _, _, snap := facadeSetup(t)
	merges, err := snap.CertainMergesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(merges) != 1 {
		t.Fatalf("certain merges = %v, want one", merges)
	}
	in := d.Interner()
	if in.Name(merges[0].A) != "p1" || in.Name(merges[0].B) != "p2" {
		t.Errorf("merge = (%s,%s)", in.Name(merges[0].A), in.Name(merges[0].B))
	}
}

func TestFacadeParseDatabaseAndQuery(t *testing.T) {
	d, err := ParseDatabase(`
		rel R(a, b).
		R(x, y). R(y, z).
	`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumFacts() != 2 {
		t.Fatalf("facts = %d", d.NumFacts())
	}
	q, err := ParseQuery(`(a, c) : R(a, b), R(b, c)`, d.Schema(), d.Interner(), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{}
	snap, err := NewSnapshot(d, spec, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := snap.CertainAnswersCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 {
		t.Errorf("answers = %v, want the single composed pair", ans)
	}
}

func TestFacadeASPPipeline(t *testing.T) {
	d, spec, sims, snap := facadeSetup(t)
	prog, err := EncodeASP(d, spec, sims)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.String(), "r_person(") {
		t.Error("encoding missing relation facts")
	}
	solver, err := NewASPSolver(d, spec, sims, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	nativeCount := 0
	if err := snap.Engine().SolutionsCtx(context.Background(), func(*eqrel.Partition) bool { nativeCount++; return false }); err != nil {
		t.Fatal(err)
	}
	aspCount := 0
	solver.Solutions(func(*eqrel.Partition) bool { aspCount++; return true })
	if nativeCount != aspCount || nativeCount == 0 {
		t.Errorf("native %d vs ASP %d solutions", nativeCount, aspCount)
	}
}

func TestFacadeSimBuilders(t *testing.T) {
	tbl := NewSimTable("custom").Add("a", "b")
	if !tbl.Holds("b", "a") {
		t.Error("table not symmetric")
	}
	pred := SimThreshold("exact", func(a, b string) float64 {
		if a == b {
			return 1
		}
		return 0
	}, 1)
	if !pred.Holds("x", "x") || pred.Holds("x", "y") {
		t.Error("threshold predicate wrong")
	}
}

func TestFacadeExplainAndScore(t *testing.T) {
	_, spec, _, snap := facadeSetup(t)
	spec.Rules[0].Weight = 2.5
	best, err := snap.Engine().BestSolutions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(best) != 1 || best[0].Score != 2.5 {
		t.Errorf("best = %+v, want one solution scoring 2.5", best)
	}
	d := snap.DB()
	p1, _ := d.Interner().Lookup("p1")
	p3, _ := d.Interner().Lookup("p3")
	xs, err := snap.ExplainMergesCtx(context.Background(), []Pair{{A: p1, B: p3}})
	if err != nil {
		t.Fatal(err)
	}
	if x := xs[0]; x.Status != MergeImpossible || !x.NeverDerivable {
		t.Errorf("explanation = %+v", x)
	}
}

// TestFacadeParseQueryAfterResolve: once a snapshot has frozen the
// database, a query naming a constant the database lacks is an error
// naming it, not a panic; parsed against a Clone of the interner, it
// has no answers.
func TestFacadeParseQueryAfterResolve(t *testing.T) {
	d, _, sims, snap := facadeSetup(t)
	ctx := context.Background()
	if _, err := snap.CertainMergesCtx(ctx); err != nil {
		t.Fatal(err)
	}
	const src = `(x) : Person(x, "zed@x.org")`
	_, err := ParseQuery(src, d.Schema(), d.Interner(), sims)
	if err == nil || !strings.Contains(err.Error(), `"zed@x.org"`) {
		t.Fatalf("ParseQuery naming an absent constant: err = %v, want one naming it", err)
	}
	q, err := ParseQuery(src, d.Schema(), d.Interner().Clone(), sims)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := snap.CertainAnswersCtx(ctx, q)
	if err != nil || len(ans) != 0 {
		t.Fatalf("answers = %v, %v; want none", ans, err)
	}
}

func TestFacadeLocalMerges(t *testing.T) {
	schema := NewSchema()
	schema.MustAdd("Pub", "id", "venue")
	d := NewDatabase(schema, nil)
	d.MustInsert("Pub", "q1", "VLDB")
	d.MustInsert("Pub", "q2", "Very Large Data Bases")
	abbrev := NewSimTable("abbrev").Add("VLDB", "Very Large Data Bases")
	sims := NewSimRegistry(abbrev)
	spec, err := ParseSpec(`soft g: Pub(x,v), Pub(y,v) ~> EQ(x,y).`, schema, d.Interner(), sims)
	if err != nil {
		t.Fatal(err)
	}
	lr := []*LocalRule{{
		Kind: RuleSoft, Name: "expand",
		Body: []Atom{
			RelAtom("Pub", VarTerm("x"), VarTerm("v")),
			RelAtom("Pub", VarTerm("y"), VarTerm("w")),
			SimAtom("abbrev", VarTerm("v"), VarTerm("w")),
			NeqAtom(VarTerm("x"), VarTerm("y")),
		},
		Left:  LocalTarget{Atom: 0, Col: 1},
		Right: LocalTarget{Atom: 1, Col: 1},
	}}
	res, err := ResolveWithLocalMerges(d, lr, spec, sims)
	if err != nil {
		t.Fatal(err)
	}
	q1, _ := d.Interner().Lookup("q1")
	q2, _ := d.Interner().Lookup("q2")
	if !res.Global.Same(q1, q2) {
		t.Error("combined pipeline missed the global merge")
	}
}

// TestFacadeMutableSession drives the streaming API through the facade:
// a batch advances the epoch and the fingerprint, the new epoch answers
// like a fresh snapshot over the same database, and the snapshot taken
// before the batch, resolved only after it, still answers its own
// epoch. The batch gives p2 a second phone, so merging p1 and p2 now
// violates onePhone.
func TestFacadeMutableSession(t *testing.T) {
	ctx := context.Background()
	d, spec, sims, atLoad := facadeSetup(t)
	ms, err := NewMutableSession(d, spec, sims, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := ms.Snapshot()
	b := Batch{
		Retract: []FactSpec{{Rel: "Phone", Args: []string{"p2", "555-0100"}}},
		Insert:  []FactSpec{{Rel: "Phone", Args: []string{"p2", "555-0123"}}},
	}
	res, snap, err := ms.ApplyDurable(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	nd, ins, ret, err := ApplyFacts(d, b.Insert, b.Retract)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || snap.Epoch() != 1 || old.Epoch() != 0 || ms.Snapshot() != snap || res.Inserted != ins || res.Retracted != ret {
		t.Fatalf("apply: result %+v, epochs %d then %d; ApplyFacts inserted %d, retracted %d", res, old.Epoch(), snap.Epoch(), ins, ret)
	}
	if res.Fingerprint != snap.Fingerprint() || snap.Fingerprint() != nd.Fingerprint() || old.Fingerprint() != d.Fingerprint() || snap.Fingerprint() == old.Fingerprint() {
		t.Fatalf("fingerprints: result %s, epoch 1 %s, ApplyFacts %s, epoch 0 %s",
			res.Fingerprint, snap.Fingerprint(), nd.Fingerprint(), old.Fingerprint())
	}

	fresh, err := NewSnapshot(nd, spec, sims, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameMerges := func(label string, got, want *EpochSnapshot) []eqrel.Pair {
		t.Helper()
		var certain []eqrel.Pair
		for i, merges := range []func(*EpochSnapshot, context.Context) ([]eqrel.Pair, error){
			(*EpochSnapshot).CertainMergesCtx, (*EpochSnapshot).PossibleMergesCtx,
		} {
			g, err := merges(got, ctx)
			if err != nil {
				t.Fatal(err)
			}
			w, err := merges(want, ctx)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(g) != fmt.Sprint(w) {
				t.Errorf("%s: merges %v, want %v", label, g, w)
			}
			if i == 0 {
				certain = g
			}
		}
		return certain
	}
	if c := sameMerges("epoch 1 against a fresh snapshot", snap, fresh); len(c) != 0 {
		t.Errorf("epoch 1 certain merges %v, want none (onePhone forbids p1 = p2)", c)
	}
	if c := sameMerges("epoch 0, resolved after the batch", old, atLoad); len(c) != 1 {
		t.Errorf("epoch 0 certain merges %v, want (p1,p2)", c)
	}
}
