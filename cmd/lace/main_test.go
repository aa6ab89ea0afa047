package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	lace "repro"
	"repro/internal/eqrel"
	"repro/internal/limits"
)

// capture runs the CLI entry with stdout redirected, returning output.
func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), runErr
}

var base = []string{
	"-data", "testdata/bib.facts",
	"-spec", "testdata/bib.spec",
	"-simtable", "testdata/approx.tsv",
}

func cli(task string, extra ...string) []string {
	return append(append([]string{task}, base...), extra...)
}

func TestCLICheck(t *testing.T) {
	out, err := capture(t, cli("check")...)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"31 facts", "2 hard, 3 soft, 3 denials", "restricted (no inequalities in denials): false"} {
		if !strings.Contains(out, want) {
			t.Errorf("check output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIExistence(t *testing.T) {
	out, err := capture(t, cli("existence")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "YES") {
		t.Errorf("existence = %q, want YES", out)
	}
}

func TestCLIMaxsolve(t *testing.T) {
	out, err := capture(t, cli("maxsolve")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2 maximal solution(s)") {
		t.Errorf("maxsolve output:\n%s", out)
	}
	if !strings.Contains(out, "{a1 a2 a3}") {
		t.Errorf("maximal solutions missing the author class:\n%s", out)
	}
}

func TestCLISolveLimit(t *testing.T) {
	out, err := capture(t, cli("solve", "-n", "2")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2 solution(s)") {
		t.Errorf("solve -n 2 output:\n%s", out)
	}
}

func TestCLIMerges(t *testing.T) {
	out, err := capture(t, cli("merges")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "6 certain, 8 possible") {
		t.Errorf("merges output:\n%s", out)
	}
	if !strings.Contains(out, "CERTAIN  a1 = a2") {
		t.Errorf("alpha not certain:\n%s", out)
	}
	if !strings.Contains(out, "possible a6 = a7") {
		t.Errorf("chi not possible-only:\n%s", out)
	}
}

func TestCLICertPossMerge(t *testing.T) {
	out, err := capture(t, cli("certmerge", "-pair", "p2,p3")...)
	if err != nil || strings.TrimSpace(out) != "YES" {
		t.Errorf("certmerge p2,p3 = %q, %v", out, err)
	}
	out, err = capture(t, cli("certmerge", "-pair", "p4,p5")...)
	if err != nil || strings.TrimSpace(out) != "NO" {
		t.Errorf("certmerge p4,p5 = %q, %v", out, err)
	}
	out, err = capture(t, cli("possmerge", "-pair", "p4,p5")...)
	if err != nil || strings.TrimSpace(out) != "YES" {
		t.Errorf("possmerge p4,p5 = %q, %v", out, err)
	}
	out, err = capture(t, cli("possmerge", "-pair", "c3,c4")...)
	if err != nil || strings.TrimSpace(out) != "NO" {
		t.Errorf("possmerge c3,c4 = %q, %v", out, err)
	}
}

func TestCLIAnswers(t *testing.T) {
	out, err := capture(t, cli("certans", "-query", "(x) : Conference(x,n,y), Chair(x,a)")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2 answer(s)") || !strings.Contains(out, "c2") || !strings.Contains(out, "c3") {
		t.Errorf("certans output:\n%s", out)
	}
	// Boolean possible answer distinguishing M2.
	out, err = capture(t, cli("possans", "-query",
		`Author(x,"mnk@tku.jp",u), Author(x,"mnk@gm.com",u2)`)...)
	if err != nil || strings.TrimSpace(out) != "YES" {
		t.Errorf("possans boolean = %q, %v", out, err)
	}
	out, err = capture(t, cli("certans", "-query",
		`Author(x,"mnk@tku.jp",u), Author(x,"mnk@gm.com",u2)`)...)
	if err != nil || strings.TrimSpace(out) != "NO" {
		t.Errorf("certans boolean = %q, %v", out, err)
	}
}

func TestCLIJustify(t *testing.T) {
	out, err := capture(t, cli("justify", "-pair", "a4,a5")...)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rho1", "CorrAuth", "(a4,a5)"} {
		if !strings.Contains(out, want) {
			t.Errorf("justification missing %q:\n%s", want, out)
		}
	}
	if _, err := capture(t, cli("justify", "-pair", "c3,c4")...); err == nil {
		t.Error("justify of an impossible pair succeeded")
	}
}

func TestCLIEncode(t *testing.T) {
	out, err := capture(t, cli("encode")...)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"eq(X,Y) :- active(X,Y), not neq(X,Y).", "r_author(", "s_approx("} {
		if !strings.Contains(out, want) {
			t.Errorf("encode output missing %q", want)
		}
	}
}

func TestCLIGreedy(t *testing.T) {
	out, err := capture(t, cli("greedy")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "{a1 a2 a3}") {
		t.Errorf("greedy solution missing author merges:\n%s", out)
	}
	if strings.Contains(out, "warning") {
		t.Errorf("greedy reported inconsistency:\n%s", out)
	}
}

// TestCLITimeout: an (effectively) expired -timeout on a search task
// returns a typed cancellation error promptly instead of hanging.
func TestCLITimeout(t *testing.T) {
	start := time.Now()
	_, err := capture(t, cli("maxsolve", "-timeout", "1ns")...)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("-timeout 1ns took %v to return", elapsed)
	}
	if err == nil {
		t.Fatal("expired -timeout produced no error")
	}
	if !errors.Is(err, limits.ErrCanceled) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want a cancellation error, got %v", err)
	}
}

// TestCLIInterruptedTasksExitNonZero pins the interruption contract
// across every search task: a tripped -budget or an expired -timeout
// must (1) return an error so the process exits non-zero, and (2) print
// an INTERRUPTED partial-result marker on stdout. Before the fix,
// certmerge/possmerge/certans/possans/greedy ignored the deadline
// entirely and exited 0.
func TestCLIInterruptedTasksExitNonZero(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"solve-budget", cli("solve", "-budget", "1")},
		{"maxsolve-budget", cli("maxsolve", "-budget", "1")},
		{"merges-budget", cli("merges", "-budget", "1")},
		{"certmerge-timeout", cli("certmerge", "-pair", "p2,p3", "-timeout", "1ns")},
		{"possmerge-timeout", cli("possmerge", "-pair", "p4,p5", "-timeout", "1ns")},
		{"certans-timeout", cli("certans", "-query", "(x) : Conference(x,n,y), Chair(x,a)", "-timeout", "1ns")},
		{"possans-timeout", cli("possans", "-query", "(x) : Conference(x,n,y), Chair(x,a)", "-timeout", "1ns")},
		{"greedy-timeout", cli("greedy", "-timeout", "1ns")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := capture(t, tc.args...)
			if err == nil {
				t.Fatalf("interrupted task exited zero; output:\n%s", out)
			}
			if !limits.IsStop(err) {
				t.Fatalf("error is not a typed stop: %v", err)
			}
			if !strings.Contains(out, "INTERRUPTED:") {
				t.Errorf("stdout missing the partial-result marker:\n%s", out)
			}
		})
	}
}

// TestCLIParallelFlag: -parallel=1 (sequential) and -parallel=4 agree
// on the deterministic set outputs.
func TestCLIParallelFlag(t *testing.T) {
	seq, err := capture(t, append(cli("merges"), "-parallel", "1")...)
	if err != nil {
		t.Fatal(err)
	}
	par, err := capture(t, append(cli("merges"), "-parallel", "4")...)
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Errorf("merges output differs between -parallel=1 and -parallel=4:\n%s\n---\n%s", seq, par)
	}
}

func TestCLIErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"bogus-task", "-data", "testdata/bib.facts", "-spec", "testdata/bib.spec"},
		{"check"},
		{"check", "-data", "nope.facts", "-spec", "testdata/bib.spec"},
		{"certmerge", "-data", "testdata/bib.facts", "-spec", "testdata/bib.spec", "-simtable", "testdata/approx.tsv", "-pair", "zz,a1"},
		{"certmerge", "-data", "testdata/bib.facts", "-spec", "testdata/bib.spec", "-simtable", "testdata/approx.tsv", "-pair", "justone"},
		{"certans", "-data", "testdata/bib.facts", "-spec", "testdata/bib.spec", "-simtable", "testdata/approx.tsv"},
	}
	for _, args := range cases {
		if _, err := capture(t, args...); err == nil {
			t.Errorf("args %v succeeded, want error", args)
		}
	}
}

// monolithic renders what the CLI must print for a task over the
// maximal solutions, computed on a monolithic engine over its own load
// of the test data and formatted as the CLI formats it.
func monolithic(t *testing.T, task string, flags ...string) string {
	t.Helper()
	d, spec, sims, err := lace.LoadFiles("testdata/bib.facts", "testdata/bib.spec", "testdata/approx.tsv")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := lace.NewEngine(d, spec, sims, lace.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	in := d.Interner()
	arg := map[string]string{}
	for i := 0; i+1 < len(flags); i += 2 {
		arg[flags[i]] = flags[i+1]
	}
	pair := func() lace.Pair {
		names := strings.SplitN(arg["-pair"], ",", 2)
		a, _ := in.Lookup(names[0])
		b, _ := in.Lookup(names[1])
		return eqrel.MakePair(a, b)
	}
	var out strings.Builder
	switch task {
	case "existence", "maxsolve":
		ms, err := eng.MaximalSolutionsCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if task == "existence" {
			return "YES: witness " + ms[0].Format(in) + "\n"
		}
		for i, m := range ms {
			fmt.Fprintf(&out, "maximal %d: %s\n", i+1, m.Format(in))
		}
		fmt.Fprintf(&out, "%d maximal solution(s)\n", len(ms))
	case "merges", "certmerge", "possmerge":
		cm, err := eng.CertainMergesCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := eng.PossibleMergesCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		switch task {
		case "certmerge":
			return verdict(slices.Contains(cm, pair())) + "\n"
		case "possmerge":
			return verdict(slices.Contains(pm, pair())) + "\n"
		}
		for _, p := range pm {
			status := "possible"
			if slices.Contains(cm, p) {
				status = "CERTAIN"
			}
			fmt.Fprintf(&out, "%-8s %s = %s\n", status, in.Name(p.A), in.Name(p.B))
		}
		fmt.Fprintf(&out, "%d certain, %d possible\n", len(cm), len(pm))
	case "certans", "possans":
		q, err := lace.ParseQuery(arg["-query"], d.Schema(), in, sims)
		if err != nil {
			t.Fatal(err)
		}
		answers := eng.PossibleAnswersCtx
		if task == "certans" {
			answers = eng.CertainAnswersCtx
		}
		ans, err := answers(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range ans {
			names := make([]string, len(tp))
			for i, c := range tp {
				names[i] = in.Name(c)
			}
			fmt.Fprintln(&out, strings.Join(names, ", "))
		}
		fmt.Fprintf(&out, "%d answer(s)\n", len(ans))
	case "justify":
		p := pair()
		x, err := eng.ExplainMergeCtx(ctx, p.A, p.B)
		if err != nil {
			t.Fatal(err)
		}
		return x.Justification.Format(in)
	default:
		t.Fatalf("no monolithic reference for %s", task)
	}
	return out.String()
}

// TestCLIShards: the tasks over maximal solutions, which the CLI answers
// from one sharded resolution, print what a monolithic engine computes.
// The existence witness is maxsolve's first solution.
func TestCLIShards(t *testing.T) {
	for _, args := range [][]string{
		{"existence"}, {"maxsolve"}, {"merges"},
		{"certans", "-query", "(x) : Conference(x,n,y), Chair(x,a)"},
		{"possans", "-query", "(x, y) : CorrAuth(p, x), CorrAuth(p, y)"},
		{"justify", "-pair", "a6,a7"},
	} {
		task := args[0]
		got, err := capture(t, cli(task, args[1:]...)...)
		if err != nil {
			t.Fatalf("%s: %v", task, err)
		}
		if want := monolithic(t, task, args[1:]...); got != want {
			t.Errorf("%s diverges from the monolithic engine:\ncli:\n%s\nmonolithic:\n%s", task, got, want)
		}
	}
}

// TestCLIShardMergeChecks: certmerge/possmerge answer from the sharded
// merge lists what the monolithic engine's merge lists say.
func TestCLIShardMergeChecks(t *testing.T) {
	for _, task := range []string{"certmerge", "possmerge"} {
		for _, pair := range []string{"a1,a2", "a6,a7", "c3,c4"} {
			got, err := capture(t, cli(task, "-pair", pair)...)
			if err != nil {
				t.Fatal(err)
			}
			if want := monolithic(t, task, "-pair", pair); got != want {
				t.Errorf("%s %s = %q, monolithic %q", task, pair, got, want)
			}
		}
	}
}
