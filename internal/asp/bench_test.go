package asp

import (
	"fmt"
	"testing"
)

// choiceProgram builds n independent binary choices plus a parity-ish
// constraint that keeps the model count at 2^n / 2.
func choiceProgram(n int) *Program {
	p := &Program{}
	for i := 0; i < n; i++ {
		c := K(fmt.Sprintf("c%d", i))
		p.AddFact(A("cand", c))
	}
	p.Add(NewRule(A("in", V("X")), Pos(A("cand", V("X"))), Not(A("out", V("X")))))
	p.Add(NewRule(A("out", V("X")), Pos(A("cand", V("X"))), Not(A("in", V("X")))))
	// c0 and c1 cannot both be in.
	p.Add(Constraint(Pos(A("in", K("c0"))), Pos(A("in", K("c1")))))
	return p
}

func BenchmarkGroundChoice(b *testing.B) {
	for _, n := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := choiceProgram(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Ground(p, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroundDatalog grounds transitive closure over a chain — the
// semi-naive fixpoint's canonical workload.
func BenchmarkGroundDatalog(b *testing.B) {
	for _, n := range []int{50, 200} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := &Program{}
			for i := 0; i < n; i++ {
				p.AddFact(A("e", K(fmt.Sprintf("v%d", i)), K(fmt.Sprintf("v%d", i+1))))
			}
			p.Add(NewRule(A("tc", V("X"), V("Y")), Pos(A("e", V("X"), V("Y")))))
			p.Add(NewRule(A("tc", V("X"), V("Z")), Pos(A("tc", V("X"), V("Y"))), Pos(A("e", V("Y"), V("Z")))))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gp, err := Ground(p, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				want := n * (n + 1) / 2
				if got := len(gp.AtomsOf("tc")); got != want {
					b.Fatalf("tc atoms = %d, want %d", got, want)
				}
			}
		})
	}
}

func BenchmarkFirstStableModel(b *testing.B) {
	gp, err := Ground(choiceProgram(50), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss := NewStableSolver(gp, nil, nil)
		if _, ok, _ := ss.Next(); !ok {
			b.Fatal("no model")
		}
	}
}

func BenchmarkEnumerate(b *testing.B) {
	// 6 choices with one exclusion: 2^6 - 2^4 = 48 models.
	gp, err := Ground(choiceProgram(6), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		NewStableSolver(gp, nil, nil).Enumerate(func([]bool) bool {
			count++
			return true
		})
		if count != 48 {
			b.Fatalf("models = %d, want 48", count)
		}
	}
}

func BenchmarkMaximalProjection(b *testing.B) {
	gp, err := Ground(choiceProgram(12), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	proj := gp.AtomsOf("in")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		NewStableSolver(gp, nil, nil).MaximalProjections(proj, func([]bool) bool {
			count++
			return true
		})
		// Maximal: all in except one of c0/c1 → 2 projections.
		if count != 2 {
			b.Fatalf("maximal = %d, want 2", count)
		}
	}
}

// BenchmarkLoopFormulas stresses the assat path: a long positive loop
// with a single external support, plus a choice that toggles it.
func BenchmarkLoopFormulas(b *testing.B) {
	p := &Program{}
	const n = 30
	for i := 0; i < n; i++ {
		p.Add(NewRule(A(fmt.Sprintf("a%d", i)), Pos(A(fmt.Sprintf("a%d", (i+1)%n)))))
	}
	p.Add(NewRule(A("a0"), Pos(A("seed")), Not(A("noseed"))))
	p.Add(NewRule(A("noseed"), Not(A("yesseed"))))
	p.Add(NewRule(A("yesseed"), Not(A("noseed"))))
	p.AddFact(A("seed"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gp, err := Ground(p, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		count := 0
		NewStableSolver(gp, nil, nil).Enumerate(func([]bool) bool {
			count++
			return true
		})
		if count != 2 {
			b.Fatalf("models = %d, want 2", count)
		}
	}
}
