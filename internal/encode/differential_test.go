package encode

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/fixtures"
	"repro/internal/limits"
	"repro/internal/rules"
	"repro/internal/sim"
)

// diffCheck cross-validates the native engine and the ASP pipeline on
// one instance: same solution set, same maximal-solution set.
func diffCheck(t *testing.T, name string, d *db.Database, spec *rules.Spec, reg *sim.Registry) {
	t.Helper()
	e, err := core.New(d, spec, reg, core.Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	s, err := NewSolver(New(d, spec, reg), nil, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	native := collectNative(t, e)
	aspSols := collectASP(t, s)
	if len(native) != len(aspSols) {
		t.Fatalf("%s: native %d solutions, ASP %d", name, len(native), len(aspSols))
	}
	for k := range native {
		if !aspSols[k] {
			t.Fatalf("%s: ASP misses a native solution", name)
		}
	}

	nat, err := e.MaximalSolutionsCtx(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	natKeys := make(map[string]bool)
	for _, m := range nat {
		natKeys[m.Key()] = true
	}
	s2, err := NewSolver(New(d, spec, reg), nil, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	count := 0
	s2.MaximalSolutions(func(E *eqrel.Partition) bool {
		count++
		if !natKeys[E.Key()] {
			t.Fatalf("%s: ASP maximal solution not native-maximal", name)
		}
		return true
	})
	if count != len(nat) {
		t.Fatalf("%s: ASP %d maximal solutions, native %d", name, count, len(nat))
	}
}

// TestDifferentialFixture runs the full native-vs-ASP comparison on the
// Figure 1 fixture (the repository's canonical instance).
func TestDifferentialFixture(t *testing.T) {
	f := fixtures.New()
	diffCheck(t, "figure1", f.DB, f.Spec, f.Sims)
}

// TestDifferentialBibTestdata runs the comparison on the bibliographic
// instance shipped as cmd/lace/testdata (facts file, spec file and
// approx similarity table), loaded the same way the CLI loads it.
func TestDifferentialBibTestdata(t *testing.T) {
	dir := filepath.Join("..", "..", "cmd", "lace", "testdata")
	facts, err := os.ReadFile(filepath.Join(dir, "bib.facts"))
	if err != nil {
		t.Skipf("bib testdata unavailable: %v", err)
	}
	d, err := db.ParseDatabase(string(facts), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sims := sim.Default()
	raw, err := os.ReadFile(filepath.Join(dir, "approx.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	tbl := sim.NewTable("approx")
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) != 2 {
			t.Fatalf("approx.tsv: bad line %q", line)
		}
		tbl.Add(parts[0], parts[1])
	}
	sims.Register(tbl)
	specSrc, err := os.ReadFile(filepath.Join(dir, "bib.spec"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := rules.ParseSpec(string(specSrc), d.Schema(), d.Interner(), sims)
	if err != nil {
		t.Fatal(err)
	}
	diffCheck(t, "bib", d, spec, sims)
}

// TestEncodeDeterministic: building the encoding repeatedly yields
// byte-identical program text, and solving it yields solutions in the
// same order. The similarity facts used to be emitted in Go map order,
// which broke both properties.
func TestEncodeDeterministic(t *testing.T) {
	f := fixtures.New()
	first, err := New(f.DB, f.Spec, f.Sims).Program()
	if err != nil {
		t.Fatal(err)
	}
	firstText := first.String()
	firstOrder := solutionOrder(t, f)
	for trial := 0; trial < 5; trial++ {
		p, err := New(f.DB, f.Spec, f.Sims).Program()
		if err != nil {
			t.Fatal(err)
		}
		if p.String() != firstText {
			t.Fatalf("trial %d: program text differs from first build", trial)
		}
		if got := solutionOrder(t, f); got != firstOrder {
			t.Fatalf("trial %d: solution order changed:\nfirst: %s\ngot:   %s", trial, firstOrder, got)
		}
	}
}

func solutionOrder(t *testing.T, f *fixtures.Figure1) string {
	t.Helper()
	s, err := NewSolver(New(f.DB, f.Spec, f.Sims), nil, nil)
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

// TestSolverBudgetCutsEnumeration: a tight decision budget stops
// Solutions with a typed error after a partial enumeration.
func TestSolverBudgetCutsEnumeration(t *testing.T) {
	f := fixtures.New()
	b := limits.NewBudget(nil, limits.Limits{MaxDecisions: 5})
	s, err := NewSolver(New(f.DB, f.Spec, f.Sims), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	err = s.Solutions(func(*eqrel.Partition) bool { seen++; return true })
	if !errors.Is(err, limits.ErrBudget) {
		t.Fatalf("want budget error, got %v after %d solutions", err, seen)
	}
	if seen >= 6 {
		t.Fatalf("budget of 5 decisions enumerated all %d solutions", seen)
	}
}

// TestSolverDeadlineSurfacesQuickly: an already-expired deadline must
// surface as ErrCanceled from every entry point, promptly — the CLI
// -timeout contract.
func TestSolverDeadlineSurfacesQuickly(t *testing.T) {
	f := fixtures.New()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	b := limits.NewBudget(ctx, limits.Limits{})
	start := time.Now()
	_, err := NewSolver(New(f.DB, f.Spec, f.Sims), b, nil)
	if !errors.Is(err, limits.ErrCanceled) {
		// Grounding may finish between polls; the enumeration must
		// then stop instead.
		s, err2 := NewSolver(New(f.DB, f.Spec, f.Sims), b, nil)
		if err2 != nil && !errors.Is(err2, limits.ErrCanceled) {
			t.Fatal(err2)
		}
		if err2 == nil {
			err = s.Solutions(func(*eqrel.Partition) bool { return true })
			if !errors.Is(err, limits.ErrCanceled) {
				t.Fatalf("expired deadline never surfaced: %v", err)
			}
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to surface", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not unwrap to context.DeadlineExceeded", err)
	}
}

// TestNoGoroutineLeakOnCancel: cancelling a parallel native search and
// a budgeted ASP run leaves no goroutines behind.
func TestNoGoroutineLeakOnCancel(t *testing.T) {
	f := fixtures.New()
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		e, err := core.New(f.DB, f.Spec, f.Sims, core.Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		_, err = e.MaximalSolutionsCtx(ctx)
		if err != nil && !errors.Is(err, limits.ErrCanceled) && !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}

		b := limits.NewBudget(ctx, limits.Limits{})
		if s, err := NewSolver(New(f.DB, f.Spec, f.Sims), b, nil); err == nil {
			_ = s.Solutions(func(*eqrel.Partition) bool { return true })
		}
	}
	// Workers drain asynchronously after cancellation; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: before=%d after=%d", before, runtime.NumGoroutine())
}
