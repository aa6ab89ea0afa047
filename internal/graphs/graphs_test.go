package graphs

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/eqrel"
)

func TestDGBCShape(t *testing.T) {
	g := DGBC(2, 3)
	// 3 isolated + g, gp + 2 chains of 2 = 9 nodes.
	if len(g.Nodes) != 9 {
		t.Errorf("G^3_2 has %d nodes, want 9", len(g.Nodes))
	}
	// loop (2) + 2 chains × 2 edges = 6 edges.
	if len(g.Edges) != 6 {
		t.Errorf("G^3_2 has %d edges, want 6", len(g.Edges))
	}
	g0 := DGBC(0, 4)
	if len(g0.Nodes) != 4 || len(g0.Edges) != 0 {
		t.Errorf("G^4_0 should be 4 isolated nodes")
	}
}

// TestSameGenerationChains: on dgbc graphs the chain pairs (v_i, w_i)
// are sg.
func TestSameGenerationChains(t *testing.T) {
	g := DGBC(3, 1)
	sg := make(map[[2]string]bool)
	for _, p := range g.SameGeneration() {
		sg[p] = true
	}
	for _, want := range [][2]string{{"v1", "w1"}, {"v2", "w2"}, {"v3", "w3"}} {
		if !sg[want] {
			t.Errorf("pair %v should be sg", want)
		}
	}
	if sg[[2]string{"g", "gp"}] {
		t.Error("(g, gp) must not be sg (the claim behind Theorem 11)")
	}
	if sg[[2]string{"u1", "v1"}] {
		t.Error("isolated node wrongly sg with a chain node")
	}
	// sg must be symmetric.
	for p := range sg {
		if !sg[[2]string{p[1], p[0]}] {
			t.Errorf("sg not symmetric at %v", p)
		}
	}
}

func TestSameGenerationSiblings(t *testing.T) {
	// Two children of one parent are sg.
	g := &Digraph{}
	for _, n := range []string{"r", "a", "b"} {
		g.AddNode(n)
	}
	g.AddEdge("r", "a")
	g.AddEdge("r", "b")
	sg := g.SameGeneration()
	if len(sg) != 2 { // (a,b) and (b,a)
		t.Fatalf("sg = %v, want the sibling pair only", sg)
	}
	if sg[0] != [2]string{"a", "b"} {
		t.Errorf("sg = %v", sg)
	}
}

// TestProposition2 verifies that Σsg expresses the sg property: the
// certain merges of (D_G, Σsg) are exactly the non-reflexive sg pairs,
// on dgbc graphs and on random digraphs.
func TestProposition2(t *testing.T) {
	check := func(g *Digraph) {
		t.Helper()
		d := g.Database()
		spec, err := SigmaSG(d.Schema())
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.New(d, spec, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cm, err := e.CertainMergesCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want := SGPairs(g, d)
		if len(cm) != len(want) {
			t.Fatalf("certMerge = %v, sg = %v", cm, want)
		}
		for i := range want {
			if cm[i] != want[i] {
				t.Fatalf("certMerge = %v, sg = %v", cm, want)
			}
		}
	}
	check(DGBC(1, 0))
	check(DGBC(3, 2))
	check(DGBC(0, 3))
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		g := &Digraph{}
		n := 4 + rng.Intn(3)
		for i := 0; i < n; i++ {
			g.AddNode(string(rune('a' + i)))
		}
		for k := 0; k < n; k++ {
			g.AddEdge(g.Nodes[rng.Intn(n)], g.Nodes[rng.Intn(n)])
		}
		check(g)
	}
}

// TestSigmaSGUniqueMaximal: Σsg has no denials, so there is exactly one
// maximal solution.
func TestSigmaSGUniqueMaximal(t *testing.T) {
	g := DGBC(2, 1)
	d := g.Database()
	spec, err := SigmaSG(d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if !spec.IsDenialFree() {
		t.Fatal("Σsg should be denial-free")
	}
	e, err := core.New(d, spec, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := e.MaximalSolutionsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Errorf("got %d maximal solutions, want 1", len(ms))
	}
}

// TestSGPairsStable: SGPairs is deterministic and deduplicated.
func TestSGPairsStable(t *testing.T) {
	g := DGBC(2, 0)
	d := g.Database()
	a := SGPairs(g, d)
	b := SGPairs(g, d)
	if len(a) != len(b) {
		t.Fatal("SGPairs not deterministic")
	}
	seen := make(map[eqrel.Pair]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SGPairs order unstable")
		}
		if seen[a[i]] {
			t.Fatalf("duplicate pair %v", a[i])
		}
		seen[a[i]] = true
	}
}
