// Package dedupalog implements a Dedupalog-style baseline clusterer
// (Arasu, Ré, Suciu, ICDE 2009) for the Section 6.2 comparison: hard
// and soft rules are evaluated *statically* — once, on the original
// database — and the resulting must-link / should-link / should-not-
// link votes are resolved with the randomized-pivot approximate
// correlation clustering algorithm the Dedupalog system uses.
//
// The contrast with LACE is deliberate: because rule bodies are never
// re-evaluated on merged instances, recursive merges (papers merging
// because their conferences merged, which merges their authors, ...)
// are invisible to this baseline, and there is no denial-constraint
// machinery to block incorrect merges. The pipeline example and the
// workload benchmarks quantify both effects.
package dedupalog

import (
	"math/rand"
	"sort"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/rules"
	"repro/internal/sim"
)

// Spec is a Dedupalog-style clustering specification.
type Spec struct {
	// Hard rules produce must-link pairs (ICDE'09 "hard rules").
	Hard []*rules.Rule
	// Soft rules produce positive should-link votes.
	Soft []*rules.Rule
	// NegSoft rules produce negative votes (Dedupalog's negated-head
	// soft rules, indicating likely non-merges).
	NegSoft []*rules.Rule
}

// FromLACE converts a LACE ruleset into the baseline's specification
// (denial constraints are dropped: Dedupalog has no counterpart).
func FromLACE(spec *rules.Spec) *Spec {
	out := &Spec{}
	for _, r := range spec.Rules {
		switch r.Kind {
		case rules.Hard:
			out.Hard = append(out.Hard, r)
		case rules.NegSoft:
			// LACE's negative-evidence rules map directly onto
			// Dedupalog's negated-head soft rules.
			out.NegSoft = append(out.NegSoft, r)
		default:
			out.Soft = append(out.Soft, r)
		}
	}
	return out
}

// votes accumulates the static rule evaluation.
type votes struct {
	must  map[eqrel.Pair]bool
	score map[eqrel.Pair]int
}

// Cluster runs the baseline: static rule evaluation on d followed by
// seeded randomized-pivot correlation clustering, returning the
// resulting equivalence relation over d's constants.
func Cluster(d *db.Database, spec *Spec, sims *sim.Registry, seed int64) (*eqrel.Partition, error) {
	v := votes{must: make(map[eqrel.Pair]bool), score: make(map[eqrel.Pair]int)}
	eval := func(rs []*rules.Rule, f func(p eqrel.Pair)) error {
		for _, r := range rs {
			p, err := cq.Prepare(r.Body.Atoms, r.Body.Head, d.Schema(), sims)
			if err != nil {
				return err
			}
			p.Run(d, cq.RunSpec{}, func(ans []db.Const) bool {
				if ans[0] != ans[1] {
					f(eqrel.MakePair(ans[0], ans[1]))
				}
				return true
			})
		}
		return nil
	}
	if err := eval(spec.Hard, func(p eqrel.Pair) { v.must[p] = true }); err != nil {
		return nil, err
	}
	if err := eval(spec.Soft, func(p eqrel.Pair) { v.score[p]++ }); err != nil {
		return nil, err
	}
	if err := eval(spec.NegSoft, func(p eqrel.Pair) { v.score[p]-- }); err != nil {
		return nil, err
	}

	part := eqrel.New(d.Interner().Size())
	// Must-links are unconditional.
	for p := range v.must {
		part.Union(p.A, p.B)
	}

	// Positive-vote adjacency for the pivot pass.
	adj := make(map[db.Const][]db.Const)
	nodeSet := make(map[db.Const]bool)
	for p, s := range v.score {
		if s > 0 {
			adj[p.A] = append(adj[p.A], p.B)
			adj[p.B] = append(adj[p.B], p.A)
			nodeSet[p.A] = true
			nodeSet[p.B] = true
		}
	}
	nodes := make([]db.Const, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })

	// Randomized pivot (KwikCluster): each unassigned pivot absorbs its
	// unassigned positive neighbours.
	assigned := make(map[db.Const]bool)
	for _, pivot := range nodes {
		if assigned[pivot] {
			continue
		}
		assigned[pivot] = true
		for _, nb := range adj[pivot] {
			if !assigned[nb] {
				assigned[nb] = true
				part.Union(pivot, nb)
			}
		}
	}
	return part, nil
}
