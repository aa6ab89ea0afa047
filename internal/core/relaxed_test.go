package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/eqrel"
	"repro/internal/rules"
	"repro/internal/workload"
)

// diffReplay checks that replay, every Justify of E's pairs and
// ScoreSolution on the indexed relaxed join are byte-identical to the
// frozen nested-loop reference.
func diffReplay(t *testing.T, name string, e *Engine, E *eqrel.Partition) {
	t.Helper()
	d, err := e.replay(E)
	ref, refErr := e.replayRef(E)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("%s: replay error %v, reference %v", name, err, refErr)
	}
	if err != nil {
		return
	}
	if got, want := fmt.Sprintf("%#v", d.steps), fmt.Sprintf("%#v", ref.steps); got != want {
		t.Fatalf("%s: replay steps differ\n got %s\nwant %s", name, got, want)
	}
	if !reflect.DeepEqual(d.adj, ref.adj) {
		t.Fatalf("%s: replay edge index differs", name)
	}
	in := e.DB().Interner()
	for _, p := range E.Pairs() {
		j, err := e.justifyIn(d, p)
		if err != nil {
			t.Fatal(err)
		}
		jr, err := e.justifyIn(ref, p)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%#v", j.Steps), fmt.Sprintf("%#v", jr.Steps); got != want {
			t.Fatalf("%s: justification of %v differs\n got %s\nwant %s", name, p, j.Format(in), jr.Format(in))
		}
	}
	score, err := e.ScoreSolution(E)
	if err != nil {
		t.Fatal(err)
	}
	refScore, err := e.scoreRef(E)
	if err != nil {
		t.Fatal(err)
	}
	if score != refScore {
		t.Fatalf("%s: ScoreSolution %v, reference %v", name, score, refScore)
	}
}

// solutionsUpTo returns at most n solutions of e in visit order.
func solutionsUpTo(t *testing.T, e *Engine, n int) []*eqrel.Partition {
	t.Helper()
	var sols []*eqrel.Partition
	err := e.SolutionsCtx(context.Background(), func(E *eqrel.Partition) bool {
		sols = append(sols, E.Clone())
		return len(sols) >= n
	})
	if err != nil {
		t.Fatal(err)
	}
	return sols
}

// TestRelaxedJoinMatchesReference: the indexed relaxed join reproduces
// the frozen nested-loop join (relaxedref_test.go) byte for byte, on
// Figure 1, on seeded workload instances and on random instances whose
// rules carry body constants and NEQ heads. Non-candidates must fail
// the same way.
func TestRelaxedJoinMatchesReference(t *testing.T) {
	e, f := fig1Engine(t)
	e.Spec().Rules[0].Weight = 2
	for i, E := range solutionsUpTo(t, e, 1000) {
		diffReplay(t, fmt.Sprintf("figure 1 solution %d", i), e, E)
	}
	bad := e.FromPairs([]eqrel.Pair{pairOf(f, "a1", "a4")})
	diffReplay(t, "figure 1 non-candidate", e, bad)

	for seed := int64(1); seed <= 12; seed++ {
		cfg := workload.DefaultConfig(seed)
		if seed%2 == 0 {
			cfg.Authors, cfg.Papers, cfg.Conferences = 6, 9, 3
		}
		ds, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		we, err := New(ds.DB, ds.Spec, ds.Sims, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		maximal, err := we.MaximalSolutionsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i, E := range append(maximal, solutionsUpTo(t, we, 8)...) {
			diffReplay(t, fmt.Sprintf("workload seed %d solution %d", seed, i), we, E)
		}
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		d, _, reg := randomInstance(t, rng)
		src := `soft s1: R(x,y) ~> EQ(x,y).
soft s2: N(x,n), N(y,n2), approx(n,n2) ~> EQ(x,y).
soft s3: R(x,"c0"), R(y,"c0") ~> EQ(x,y).
soft s4: S(x,v), S(y,v), N(x,n), approx(n,"nb") ~> EQ(x,y).
soft n1: R(x,y), S(y,x) ~> NEQ(x,y).
soft s5: R("c1",x), R("c1",y) ~> EQ(x,y).
hard h1: S(z,x), S(z,y), N(x,n), N(y,n) => EQ(x,y).`
		spec, err := rules.ParseSpec(src, d.Schema(), d.Interner(), reg)
		if err != nil {
			t.Fatal(err)
		}
		re, err := New(d, spec, reg, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, E := range solutionsUpTo(t, re, 50) {
			diffReplay(t, fmt.Sprintf("random trial %d solution %d", trial, i), re, E)
		}
	}
}
