package encode

import (
	"strings"
	"testing"

	"repro/internal/eqrel"
	wl "repro/internal/workload"
)

// solver_stress_test.go pushes the full encode→ground→stable-model
// pipeline through an instance an order of magnitude past Figure 1, so
// the CDCL machinery underneath (clause learning, backjumping,
// restarts) runs inside the pipeline it actually serves — not just in
// the internal/asp unit harnesses. The native engine is the oracle for
// the complete solution set and the maximal set, and enumeration order
// must be reproducible run over run (the canonical-model contract the
// serving layer's cache keys and audit chain rely on).

// stressInstance is the bibliographic workload at the serve-benchmark
// scale: big enough that stable-model search genuinely conflicts,
// small enough that the complete native search stays sub-second.
func stressInstance(t *testing.T) *wl.Dataset {
	t.Helper()
	cfg := wl.DefaultConfig(13)
	cfg.Authors, cfg.Papers, cfg.Conferences = 8, 12, 4
	ds, err := wl.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestDifferentialWorkloadStress: the native-vs-ASP differential on the
// stress instance — same solution set, same maximal-solution set.
func TestDifferentialWorkloadStress(t *testing.T) {
	if testing.Short() {
		t.Skip("workload-scale differential")
	}
	ds := stressInstance(t)
	diffCheck(t, "workload_stress", ds.DB, ds.Spec, ds.Sims)
}

// TestWorkloadStressEnumerationStable: two independent solver builds
// over the stress instance must enumerate stable models in the same
// order — the property the CDCL rewrite is contractually bound to
// preserve, checked at pipeline scale.
func TestWorkloadStressEnumerationStable(t *testing.T) {
	if testing.Short() {
		t.Skip("workload-scale enumeration")
	}
	ds := stressInstance(t)
	order := func() string {
		s, err := NewSolver(New(ds.DB, ds.Spec, ds.Sims), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		s.Solutions(func(E *eqrel.Partition) bool {
			keys = append(keys, E.Key())
			return true
		})
		return strings.Join(keys, "|")
	}
	first := order()
	if first == "" {
		t.Fatal("stress instance produced no solutions")
	}
	if again := order(); again != first {
		t.Fatalf("enumeration order not reproducible:\nfirst: %s\nagain: %s", first, again)
	}
}
