package encode

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/limits"
	"repro/internal/rules"
	"repro/internal/sim"
)

// byteSrc deals fuzz bytes out as bounded choices; an exhausted input
// yields zeros, so every byte slice decodes to a valid instance.
type byteSrc struct {
	data []byte
	pos  int
}

func (s *byteSrc) next(n int) int {
	if n <= 1 {
		return 0
	}
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return int(b) % n
}

// instanceFromBytes decodes a fuzz input into a small database and
// specification over the same shape as randomInstance: relations R/2,
// S/2, N/2, constants c0..c4, names na..nc, a similarity table, two
// soft rules, an optional hard rule and one of three denials.
func instanceFromBytes(data []byte) (*db.Database, *rules.Spec, *sim.Registry, error) {
	src := &byteSrc{data: data}
	sch := db.NewSchema()
	sch.MustAdd("R", "a", "b")
	sch.MustAdd("S", "k", "v")
	sch.MustAdd("N", "id", "name")
	d := db.New(sch, nil)
	consts := []string{"c0", "c1", "c2", "c3", "c4"}
	names := []string{"na", "nb", "nc"}
	nr := 2 + src.next(4)
	for i := 0; i < nr; i++ {
		d.MustInsert("R", consts[src.next(len(consts))], consts[src.next(len(consts))])
	}
	ns := 2 + src.next(4)
	for i := 0; i < ns; i++ {
		d.MustInsert("S", consts[src.next(len(consts))], consts[src.next(len(consts))])
	}
	nn := src.next(4)
	for i := 0; i < nn; i++ {
		d.MustInsert("N", consts[src.next(len(consts))], names[src.next(len(names))])
	}
	tbl := sim.NewTable("approx").Add("na", "nb")
	if src.next(2) == 0 {
		tbl.Add("nb", "nc")
	}
	reg := sim.NewRegistry(tbl)

	specSrc := `soft s1: R(x,y) ~> EQ(x,y).
soft s2: N(x,n), N(y,n2), approx(n,n2) ~> EQ(x,y).`
	if src.next(2) == 0 {
		specSrc += "\nhard h1: S(z,x), S(z,y) => EQ(x,y)."
	}
	switch src.next(4) {
	case 0:
		specSrc += "\ndenial d1: S(k,v), S(k,v2), v != v2."
	case 1:
		specSrc += "\ndenial d1: R(x,x)."
	case 2:
		specSrc += "\ndenial d1: S(k,v), R(v,k)."
	}
	spec, err := rules.ParseSpec(specSrc, sch, d.Interner(), reg)
	if err != nil {
		return nil, nil, nil, err
	}
	return d, spec, reg, nil
}

// FuzzTheorem10 is a spec-level differential fuzzer for Theorem 10 of
// the paper: on every decoded instance, the solutions of (D, Σ)
// computed by the native search engine must coincide with the stable
// models of Π_Sol projected to eq, and likewise for the maximal
// solutions. Both engines run under budgets; an instance either engine
// cannot finish within budget is skipped rather than compared. This
// harness caught the nondeterministic similarity-fact ordering in the
// encoder (the ASP solution set was order-dependent run to run).
func FuzzTheorem10(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3, 0, 1, 0, 1, 0})
	f.Add([]byte{200, 130, 7, 77, 42, 250, 3, 9, 18, 27, 36, 45, 54, 63})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		d, spec, reg, err := instanceFromBytes(data)
		if err != nil {
			t.Fatalf("decoded instance does not parse: %v", err)
		}
		e, err := core.New(d, spec, reg, core.Options{MaxStates: 50_000})
		if err != nil {
			t.Fatal(err)
		}
		b := limits.NewBudget(nil, limits.Limits{
			MaxGroundRules: 60_000,
			MaxClauses:     500_000,
			MaxDecisions:   2_000_000,
		})
		s, err := NewSolver(New(d, spec, reg), b, nil)
		if err != nil {
			if errors.Is(err, limits.ErrBudget) {
				t.Skip("grounding over budget")
			}
			t.Fatal(err)
		}

		native := make(map[string]bool)
		if err := e.SolutionsCtx(context.Background(), func(E *eqrel.Partition) bool {
			native[E.Key()] = true
			return false
		}); err != nil {
			if errors.Is(err, core.ErrBudget) {
				t.Skip("native search over budget")
			}
			t.Fatal(err)
		}
		aspSols := make(map[string]bool)
		if err := s.Solutions(func(E *eqrel.Partition) bool {
			aspSols[E.Key()] = true
			return true
		}); err != nil {
			if errors.Is(err, limits.ErrBudget) {
				t.Skip("ASP enumeration over budget")
			}
			t.Fatal(err)
		}
		if len(native) != len(aspSols) {
			t.Fatalf("native %d solutions, ASP %d\nDB:\n%s\nSpec:\n%s", len(native), len(aspSols), d, spec)
		}
		for k := range native {
			if !aspSols[k] {
				t.Fatalf("ASP misses a native solution\nDB:\n%s\nSpec:\n%s", d, spec)
			}
		}

		nat, err := e.MaximalSolutionsCtx(context.Background())
		if err != nil {
			if errors.Is(err, core.ErrBudget) {
				t.Skip("native maximal search over budget")
			}
			t.Fatal(err)
		}
		natKeys := make(map[string]bool)
		for _, m := range nat {
			natKeys[m.Key()] = true
		}
		// Maximal enumeration saturates a stable solver, so it needs a
		// fresh one; reuse the grounding through a second Solver under a
		// fresh budget.
		b2 := limits.NewBudget(nil, limits.Limits{MaxClauses: 500_000, MaxDecisions: 2_000_000})
		s2, err := NewSolver(New(d, spec, reg), b2, nil)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		if err := s2.MaximalSolutions(func(E *eqrel.Partition) bool {
			count++
			if !natKeys[E.Key()] {
				t.Fatalf("ASP maximal solution not native-maximal\nDB:\n%s\nSpec:\n%s", d, spec)
			}
			return true
		}); err != nil {
			if errors.Is(err, limits.ErrBudget) {
				t.Skip("ASP maximal enumeration over budget")
			}
			t.Fatal(err)
		}
		if count != len(nat) {
			t.Fatalf("ASP %d maximal solutions, native %d\nDB:\n%s\nSpec:\n%s", count, len(nat), d, spec)
		}
	})
}
