package asp

import (
	"fmt"
	"math/rand"
	"testing"
)

// bruteStableModels checks every subset of atoms of a ground program
// against the stable-model definition directly: M is stable iff M is
// the least model of the reduct w.r.t. M. Exponential — reference only.
func bruteStableModels(gp *GroundProgram) map[string]bool {
	n := gp.NumAtoms()
	out := make(map[string]bool)
	model := make([]bool, n)
	for mask := 0; mask < 1<<n; mask++ {
		for a := 0; a < n; a++ {
			model[a] = mask>>a&1 == 1
		}
		// Least model of the reduct.
		lm := make([]bool, n)
		for changed := true; changed; {
			changed = false
			for _, r := range gp.Rules {
				if r.Head < 0 {
					continue
				}
				ok := true
				for _, ng := range r.Neg {
					if model[ng] {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				for _, p := range r.Pos {
					if !lm[p] {
						ok = false
						break
					}
				}
				if ok && !lm[r.Head] {
					lm[r.Head] = true
					changed = true
				}
			}
		}
		stable := true
		for a := 0; a < n; a++ {
			if model[a] != lm[a] {
				stable = false
				break
			}
		}
		if !stable {
			continue
		}
		// Constraints must hold.
		for _, r := range gp.Rules {
			if r.Head >= 0 {
				continue
			}
			violated := true
			for _, p := range r.Pos {
				if !model[p] {
					violated = false
					break
				}
			}
			if violated {
				for _, ng := range r.Neg {
					if model[ng] {
						violated = false
						break
					}
				}
			}
			if violated {
				stable = false
				break
			}
		}
		if stable {
			out[maskKey(model)] = true
		}
	}
	return out
}

func maskKey(model []bool) string {
	b := make([]byte, len(model))
	for i, v := range model {
		if v {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// randomGroundProgram samples a small propositional normal program over
// natoms atoms, with positive loops, negation and constraints.
func randomGroundProgram(rng *rand.Rand, natoms, nrules int) *Program {
	p := &Program{}
	atom := func(i int) Atom { return A(fmt.Sprintf("x%d", i)) }
	for i := 0; i < nrules; i++ {
		var body []Literal
		nb := rng.Intn(3)
		for j := 0; j < nb; j++ {
			l := Literal{Atom: atom(rng.Intn(natoms)), Neg: rng.Intn(3) == 0}
			body = append(body, l)
		}
		if rng.Intn(8) == 0 && len(body) > 0 {
			p.Add(Rule{Body: body}) // constraint
		} else {
			p.Add(NewRule(atom(rng.Intn(natoms)), body...))
		}
	}
	return p
}

// TestStableModelsAgainstBruteForce cross-checks the solver pipeline
// (completion + DPLL + loop formulas) against the definition on 300
// random programs — the strongest possible evidence the ASP substrate
// implements stable-model semantics.
func TestStableModelsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		prog := randomGroundProgram(rng, 3+rng.Intn(4), 3+rng.Intn(8))
		gp, err := Ground(prog, nil, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bruteStableModels(gp)
		got := make(map[string]bool)
		NewStableSolver(gp, nil, nil).Enumerate(func(m []bool) bool {
			got[maskKey(m)] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: solver %d models, brute force %d\nprogram:\n%s",
				trial, len(got), len(want), prog)
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: solver missed stable model %s\nprogram:\n%s", trial, k, prog)
			}
		}
	}
}

// TestBraveCautiousAgainstEnumeration: brave/cautious equal the
// union/intersection of the enumerated models on random programs.
func TestBraveCautiousAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 60; trial++ {
		prog := randomGroundProgram(rng, 3+rng.Intn(3), 3+rng.Intn(6))
		gp, err := Ground(prog, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var union, inter []bool
		found := false
		NewStableSolver(gp, nil, nil).Enumerate(func(m []bool) bool {
			if !found {
				found = true
				union = append([]bool(nil), m...)
				inter = append([]bool(nil), m...)
				return true
			}
			for i := range m {
				union[i] = union[i] || m[i]
				inter[i] = inter[i] && m[i]
			}
			return true
		})
		brave, cautious, ok, _ := NewStableSolver(gp, nil, nil).BraveCautious()
		if ok != found {
			t.Fatalf("trial %d: coherence mismatch", trial)
		}
		if !found {
			continue
		}
		for i := range union {
			if brave[i] != union[i] || cautious[i] != inter[i] {
				t.Fatalf("trial %d: brave/cautious mismatch at atom %d", trial, i)
			}
		}
	}
}
