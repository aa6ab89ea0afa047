package encode

import (
	"testing"

	"repro/internal/asp"
	"repro/internal/eqrel"
	"repro/internal/fixtures"
)

// TestEncodingTextRoundTrip is a deep integration check of the whole
// ASP substrate: render Π_Sol for Figure 1 to clingo-compatible text,
// re-parse it with the ASP parser, ground and solve the re-parsed
// program, and compare its stable-model eq-projections with the
// directly built pipeline. This is exactly what shipping the encoding
// to an external clingo would exercise.
func TestEncodingTextRoundTrip(t *testing.T) {
	f := fixtures.New()
	en := New(f.DB, f.Spec, f.Sims)
	prog, err := en.Program()
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := asp.Parse(prog.String())
	if err != nil {
		t.Fatalf("Π_Sol text does not re-parse: %v", err)
	}
	if len(reparsed.Rules) != len(prog.Rules) {
		t.Fatalf("round trip changed rule count: %d vs %d", len(reparsed.Rules), len(prog.Rules))
	}

	collect := func(p *asp.Program) map[string]bool {
		t.Helper()
		gp, err := asp.Ground(p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ss := asp.NewStableSolver(gp, nil, nil)
		eqAtoms := gp.AtomsOf(PredEq)
		out := make(map[string]bool)
		ss.Enumerate(func(m []bool) bool {
			part := eqrel.New(f.DB.Interner().Size())
			for _, id := range eqAtoms {
				if !m[id] {
					continue
				}
				ga := gp.Atom(id)
				a, okA := f.DB.Interner().Lookup(gp.ConstName(ga.Args[0]))
				b, okB := f.DB.Interner().Lookup(gp.ConstName(ga.Args[1]))
				if okA && okB {
					part.Union(a, b)
				}
			}
			out[part.Key()] = true
			return true
		})
		return out
	}

	direct := collect(prog)
	viaText := collect(reparsed)
	if len(direct) != 6 {
		t.Fatalf("direct pipeline found %d solutions, want 6", len(direct))
	}
	if len(viaText) != len(direct) {
		t.Fatalf("text round trip changed the solution count: %d vs %d", len(viaText), len(direct))
	}
	for k := range direct {
		if !viaText[k] {
			t.Fatal("text round trip lost a solution")
		}
	}
}
