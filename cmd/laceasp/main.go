// Command laceasp is a standalone answer set solver for normal logic
// programs — the repository's stand-in for clingo, exposed as a tool.
// It reads a program in clingo-compatible syntax (from files or stdin)
// and computes stable models.
//
//	laceasp [-n N] [-brave] [-cautious] [-max PRED] [resource flags] [file...]
//
//	-n N             stop after N models (0 = all)
//	-brave           print atoms true in SOME stable model
//	-cautious        print atoms true in EVERY stable model
//	-max PRED        enumerate only models whose PRED-atom projection is
//	                 subset-maximal (the preference used for LACE's
//	                 maximal solutions)
//	-stats           print grounding/solving statistics after the models
//	-timeout D       wall-clock deadline for the whole run (e.g. 500ms,
//	                 10s; 0 = none)
//	-max-rules N     stop grounding after N ground rule instances
//	-max-clauses N   stop solving after N CNF clauses (completion, loop
//	                 formulas and blocking clauses combined)
//	-max-decisions N stop solving after N SAT decisions
//
// When a resource budget or the deadline trips, the models found so far
// are printed, an "interrupted" line reports how far the run got, and
// the process exits 1 with the typed error on stderr.
//
// Example:
//
//	echo 'a :- not b. b :- not a.' | laceasp
//	laceasp -max sel -timeout 10s choice.lp
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/asp"
	"repro/internal/limits"
	"repro/internal/obs"
)

// cliOpts carries the flag values; run stays testable without a flag
// set.
type cliOpts struct {
	n               int
	brave, cautious bool
	maxPred         string
	stats           bool

	timeout      time.Duration
	maxRules     int
	maxClauses   int
	maxDecisions int64
}

func main() {
	var o cliOpts
	flag.IntVar(&o.n, "n", 0, "number of models to compute (0 = all)")
	flag.BoolVar(&o.brave, "brave", false, "print brave consequences (union of models)")
	flag.BoolVar(&o.cautious, "cautious", false, "print cautious consequences (intersection)")
	flag.StringVar(&o.maxPred, "max", "", "enumerate subset-maximal models w.r.t. this predicate")
	flag.BoolVar(&o.stats, "stats", false, "print grounding/solving statistics after the models")
	flag.DurationVar(&o.timeout, "timeout", 0, "wall-clock deadline for the whole run (0 = none)")
	flag.IntVar(&o.maxRules, "max-rules", 0, "ground rule budget (0 = unlimited)")
	flag.IntVar(&o.maxClauses, "max-clauses", 0, "CNF clause budget (0 = unlimited)")
	flag.Int64Var(&o.maxDecisions, "max-decisions", 0, "SAT decision budget (0 = unlimited)")
	flag.Parse()

	if err := run(flag.Args(), o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "laceasp:", err)
		os.Exit(1)
	}
}

// budget builds the run's resource budget from the flags; nil when no
// bound was requested. The returned cancel func must run at exit.
func (o cliOpts) budget() (*limits.Budget, context.CancelFunc) {
	lim := limits.Limits{
		MaxGroundRules: o.maxRules,
		MaxClauses:     o.maxClauses,
		MaxDecisions:   o.maxDecisions,
	}
	if o.timeout <= 0 && lim.Unlimited() {
		return nil, func() {}
	}
	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if o.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
	}
	return limits.NewBudget(ctx, lim), cancel
}

func run(files []string, o cliOpts, out io.Writer) error {
	var src strings.Builder
	if len(files) == 0 {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return err
		}
		src.Write(data)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		src.Write(data)
		src.WriteByte('\n')
	}

	prog, err := asp.Parse(src.String())
	if err != nil {
		return err
	}
	var rec obs.Recorder = obs.Nop{}
	if o.stats {
		rec = obs.NewRegistry()
		defer func() { fmt.Fprint(out, rec.Snapshot().Format()) }()
	}
	b, cancel := o.budget()
	defer cancel()
	gp, err := asp.Ground(prog, b, rec)
	if err != nil {
		if isStop(err) {
			fmt.Fprintf(out, "interrupted during grounding: %v\n", err)
		}
		return err
	}
	ss := asp.NewStableSolver(gp, b, rec)

	show := func(m []bool) string {
		var atoms []string
		for _, id := range asp.TrueAtoms(m) {
			atoms = append(atoms, gp.AtomString(id))
		}
		sort.Strings(atoms)
		return strings.Join(atoms, " ")
	}

	switch {
	case o.brave || o.cautious:
		bv, cv, found, err := ss.BraveCautious()
		if err != nil {
			fmt.Fprintf(out, "interrupted: %v (consequences below cover the models found so far)\n", err)
		}
		if !found {
			if err == nil {
				fmt.Fprintln(out, "UNSATISFIABLE")
			}
			return err
		}
		if o.brave {
			fmt.Fprintf(out, "brave: %s\n", show(bv))
		}
		if o.cautious {
			fmt.Fprintf(out, "cautious: %s\n", show(cv))
		}
		return err

	case o.maxPred != "":
		proj := gp.AtomsOf(o.maxPred)
		if len(proj) == 0 {
			return fmt.Errorf("no ground atoms for predicate %q", o.maxPred)
		}
		count := 0
		err := ss.MaximalProjections(proj, func(m []bool) bool {
			count++
			fmt.Fprintf(out, "Answer %d (max %s): %s\n", count, o.maxPred, show(m))
			return o.n == 0 || count < o.n
		})
		switch {
		case err != nil:
			fmt.Fprintf(out, "interrupted after %d maximal model(s): %v\n", count, err)
		case count == 0:
			fmt.Fprintln(out, "UNSATISFIABLE")
		default:
			fmt.Fprintf(out, "%d maximal model(s)\n", count)
		}
		return err

	default:
		count := 0
		err := ss.Enumerate(func(m []bool) bool {
			count++
			fmt.Fprintf(out, "Answer %d: %s\n", count, show(m))
			return o.n == 0 || count < o.n
		})
		switch {
		case err != nil:
			fmt.Fprintf(out, "interrupted after %d model(s): %v\n", count, err)
		case count == 0:
			fmt.Fprintln(out, "UNSATISFIABLE")
		default:
			fmt.Fprintf(out, "%d model(s)\n", count)
		}
		return err
	}
}

// isStop reports whether err is a budget or cancellation stop (as
// opposed to a malformed program or I/O failure).
func isStop(err error) bool {
	return limits.IsStop(err)
}
