package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/limits"
)

func writeProgram(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.lp")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, files []string, n int, brave, cautious bool, maxPred string) string {
	t.Helper()
	var out strings.Builder
	if err := run(files, cliOpts{n: n, brave: brave, cautious: cautious, maxPred: maxPred}, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestEnumerateModels(t *testing.T) {
	p := writeProgram(t, `a :- not b. b :- not a.`)
	out := runCLI(t, []string{p}, 0, false, false, "")
	if !strings.Contains(out, "2 model(s)") {
		t.Errorf("output:\n%s", out)
	}
}

func TestModelLimit(t *testing.T) {
	p := writeProgram(t, `a :- not b. b :- not a.`)
	out := runCLI(t, []string{p}, 1, false, false, "")
	if !strings.Contains(out, "1 model(s)") {
		t.Errorf("output:\n%s", out)
	}
}

func TestUnsatisfiable(t *testing.T) {
	p := writeProgram(t, `a :- not a.`)
	out := runCLI(t, []string{p}, 0, false, false, "")
	if !strings.Contains(out, "UNSATISFIABLE") {
		t.Errorf("output:\n%s", out)
	}
}

func TestBraveCautiousFlags(t *testing.T) {
	p := writeProgram(t, `c. a :- not b. b :- not a.`)
	out := runCLI(t, []string{p}, 0, true, true, "")
	if !strings.Contains(out, "brave: a b c") {
		t.Errorf("brave wrong:\n%s", out)
	}
	if !strings.Contains(out, "cautious: c") {
		t.Errorf("cautious wrong:\n%s", out)
	}
}

func TestMaximalFlag(t *testing.T) {
	p := writeProgram(t, `
		cand(x). cand(y).
		in(X) :- cand(X), not out(X).
		out(X) :- cand(X), not in(X).
		:- in(x), in(y).
	`)
	out := runCLI(t, []string{p}, 0, false, false, "in")
	if !strings.Contains(out, "2 maximal model(s)") {
		t.Errorf("output:\n%s", out)
	}
}

func TestMultipleFiles(t *testing.T) {
	p1 := writeProgram(t, `q(a).`)
	p2 := writeProgram(t, `p(X) :- q(X).`)
	out := runCLI(t, []string{p1, p2}, 0, false, false, "")
	if !strings.Contains(out, "p(a)") {
		t.Errorf("output:\n%s", out)
	}
}

func TestStatsFlag(t *testing.T) {
	p := writeProgram(t, `a :- not b. b :- not a.`)
	var out strings.Builder
	if err := run([]string{p}, cliOpts{stats: true}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2 model(s)", "asp.sat.decisions", "asp.ground"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stats output missing %q:\n%s", want, out.String())
		}
	}
}

func TestErrors(t *testing.T) {
	var out strings.Builder
	bad := writeProgram(t, `p(X) :- q(Y).`)
	if err := run([]string{bad}, cliOpts{}, &out); err == nil {
		t.Error("unsafe program accepted")
	}
	ok := writeProgram(t, `q(a).`)
	if err := run([]string{ok}, cliOpts{maxPred: "nosuchpred"}, &out); err == nil {
		t.Error("-max with unknown predicate accepted")
	}
	if err := run([]string{"/definitely/missing.lp"}, cliOpts{}, &out); err == nil {
		t.Error("missing file accepted")
	}
}

// TestTimeoutFlag: an (effectively) already-expired -timeout must return
// a typed cancellation error and still print a graceful "interrupted"
// line instead of hanging or panicking — the `laceasp -timeout 1ms`
// acceptance check.
func TestTimeoutFlag(t *testing.T) {
	// A program whose grounding is large enough that at least one budget
	// poll happens after the deadline fires.
	p := writeProgram(t, `
		n(c0). n(c1). n(c2). n(c3). n(c4). n(c5). n(c6). n(c7).
		e(X,Y) :- n(X), n(Y).
		r(X,Y) :- e(X,Y).
		r(X,Z) :- r(X,Y), e(Y,Z).
		in(X) :- n(X), not out(X).
		out(X) :- n(X), not in(X).
	`)
	var out strings.Builder
	start := time.Now()
	err := run([]string{p}, cliOpts{timeout: time.Millisecond}, &out)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("-timeout 1ms took %v to return", elapsed)
	}
	if err == nil {
		// On a fast machine the whole run may beat even a 1ms deadline;
		// retry with a pre-expired nanosecond budget to force the stop.
		err = run([]string{p}, cliOpts{timeout: time.Nanosecond}, &out)
	}
	if !errors.Is(err, limits.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !strings.Contains(out.String(), "interrupted") {
		t.Errorf("no graceful interruption message:\n%s", out.String())
	}
}

// TestMaxRulesFlag: the grounding budget stops the run with a typed
// budget error naming the resource.
func TestMaxRulesFlag(t *testing.T) {
	p := writeProgram(t, `
		e(a,b). e(b,c). e(c,d). e(d,e).
		r(X,Y) :- e(X,Y).
		r(X,Z) :- r(X,Y), e(Y,Z).
	`)
	var out strings.Builder
	err := run([]string{p}, cliOpts{maxRules: 3}, &out)
	if !errors.Is(err, limits.ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	var be *limits.BudgetError
	if !errors.As(err, &be) || be.Resource != "ground rules" {
		t.Fatalf("typed error wrong: %#v", err)
	}
	if !strings.Contains(out.String(), "interrupted during grounding") {
		t.Errorf("no grounding interruption message:\n%s", out.String())
	}
}

// TestMaxClausesFlag: the clause budget covers the completion, so a
// budget smaller than the completion (55 clauses here) stops the run
// before any model is printed.
func TestMaxClausesFlag(t *testing.T) {
	p := writeProgram(t, `
		a :- not b. b :- not a. c :- a. d :- b.
		e(1). e(2). e(3).
		f(X) :- e(X), not g(X).
		g(X) :- e(X), not f(X).
	`)
	var out strings.Builder
	err := run([]string{p}, cliOpts{maxClauses: 1}, &out)
	if !errors.Is(err, limits.ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	var be *limits.BudgetError
	if !errors.As(err, &be) || be.Resource != "clauses" {
		t.Fatalf("typed error wrong: %#v", err)
	}
	s := out.String()
	if strings.Contains(s, "Answer") {
		t.Errorf("models printed under a 1-clause budget:\n%s", s)
	}
	if !strings.Contains(s, "interrupted after 0 model(s)") {
		t.Errorf("no interrupted summary:\n%s", s)
	}
}

// TestMaxDecisionsPartialModels: a tight decision budget prints the
// models found before the stop, then the interrupted line with a count.
func TestMaxDecisionsPartialModels(t *testing.T) {
	p := writeProgram(t, `
		n(a). n(b). n(c). n(d).
		in(X) :- n(X), not out(X).
		out(X) :- n(X), not in(X).
	`)
	var out strings.Builder
	err := run([]string{p}, cliOpts{maxDecisions: 10}, &out)
	if !errors.Is(err, limits.ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "Answer 1:") {
		t.Errorf("no partial models printed:\n%s", s)
	}
	if !strings.Contains(s, "interrupted after") {
		t.Errorf("no interrupted summary:\n%s", s)
	}
	if strings.Contains(s, "16 model(s)") {
		t.Errorf("budget of 10 decisions enumerated everything:\n%s", s)
	}
}
