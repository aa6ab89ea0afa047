package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

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

// TestCLIShards: the tasks over maximal solutions agree between -shards
// and the monolithic default.
func TestCLIShards(t *testing.T) {
	for _, args := range [][]string{
		{"existence"}, {"maxsolve"}, {"merges"},
		{"certans", "-query", "(x) : Conference(x,n,y), Chair(x,a)"},
		{"possans", "-query", "(x, y) : CorrAuth(p, x), CorrAuth(p, y)"},
		{"justify", "-pair", "a6,a7"},
	} {
		task := args[0]
		mono, err := capture(t, cli(task, args[1:]...)...)
		if err != nil {
			t.Fatalf("%s: %v", task, err)
		}
		sharded, err := capture(t, cli(task, append(args[1:], "-shards")...)...)
		if err != nil {
			t.Fatalf("%s -shards: %v", task, err)
		}
		if task == "existence" {
			// The witness is any solution, not a canonical one; only the
			// verdict is pinned.
			if strings.SplitN(sharded, ":", 2)[0] != strings.SplitN(mono, ":", 2)[0] {
				t.Errorf("existence verdict diverges under -shards:\nmonolithic %q\nsharded %q", mono, sharded)
			}
			continue
		}
		if sharded != mono {
			t.Errorf("%s diverges under -shards:\nmonolithic:\n%s\nsharded:\n%s", task, mono, sharded)
		}
	}
}

// TestCLIShardMergeChecks: certmerge/possmerge route through the
// sharded merge lists.
func TestCLIShardMergeChecks(t *testing.T) {
	out, err := capture(t, cli("certmerge", "-shards", "-pair", "a1,a2")...)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := capture(t, cli("certmerge", "-pair", "a1,a2")...)
	if err != nil {
		t.Fatal(err)
	}
	if out != mono {
		t.Errorf("certmerge -shards %q vs monolithic %q", out, mono)
	}
	out, err = capture(t, cli("possmerge", "-shards", "-pair", "a1,a2")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "YES") && !strings.HasPrefix(out, "NO") {
		t.Errorf("possmerge -shards output %q", out)
	}
}
