// Command lace is the command-line interface to the LACE entity
// resolution engine. It loads a database (fact file) and an ER
// specification, then runs one of the reasoning tasks of the paper:
//
//	lace check     -data D -spec S              validate inputs, report classification
//	lace existence -data D -spec S              does a solution exist? (with a witness)
//	lace solve     -data D -spec S [-n N]       enumerate solutions
//	lace maxsolve  -data D -spec S              enumerate maximal solutions
//	lace merges    -data D -spec S              certain and possible merges
//	lace certmerge -data D -spec S -pair a,b    is (a,b) a certain merge?
//	lace possmerge -data D -spec S -pair a,b    is (a,b) a possible merge?
//	lace certans   -data D -spec S -query Q     certain answers to a CQ
//	lace possans   -data D -spec S -query Q     possible answers to a CQ
//	lace justify   -data D -spec S -pair a,b    justify a certain merge
//	lace encode    -data D -spec S              print the Pi_Sol ASP program
//	lace greedy    -data D -spec S              one greedy solution (scalable mode)
//
// Fact files use one fact per statement, e.g. `Author(a1, "x@y.z", Oxford).`
// with optional `rel Author(id, email, inst).` declarations. Spec files
// use the rule language of the paper, e.g.
//
//	soft s2: Author(x,e,u), Author(y,e2,u), lev08(e,e2) ~> EQ(x,y).
//	denial d1: Wrote(x,y,z), Wrote(x,y2,z), y != y2.
//
// Similarity predicates: the built-ins lev08, jw90, tri50 and "~" are
// always available; -simtable FILE adds explicit extension pairs to a
// predicate named approx (lines: value1<TAB>value2).
//
// The tasks over maximal solutions (existence, maxsolve, merges,
// certmerge, possmerge, certans, possans, justify) answer from one
// resolution of the instance: the top of the candidate lattice when it
// satisfies the denials, otherwise the coupled components it leaves in
// conflict, each solved independently and stitched. The existence
// witness is the first maximal solution in canonical order, the
// "maximal 1" line of maxsolve, except for a restricted specification
// (no inequalities in denials), which existence decides by Theorem 8
// without resolving: its witness is the hard closure of the identity.
//
// -budget N bounds the number of search states and -timeout D puts a
// wall-clock deadline on the search tasks (existence, solve, maxsolve,
// merges, justify); a tripped bound exits 1 with a typed error message.
// -stats also prints the resolution's shard line to stderr when the
// task resolved the instance.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	lace "repro"
	"repro/internal/eqrel"
	"repro/internal/limits"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lace:", err)
		os.Exit(1)
	}
}

type env struct {
	d    *lace.Database
	spec *lace.Spec
	sims *lace.SimRegistry
	// snap answers every task defined over the maximal solutions
	// (existence, maxsolve, merges, certmerge, possmerge, certans,
	// possans, justify); its engine runs the enumeration tasks (solve,
	// greedy).
	snap *lace.EpochSnapshot
	// query is certans/possans's parsed -query. It is parsed before the
	// snapshot freezes the database, whose interner then takes no new
	// constant, so the query's own constants get ids in it.
	query *lace.CQ
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: lace <task> -data FILE -spec FILE [options]; tasks: check existence solve maxsolve merges certmerge possmerge certans possans justify encode greedy")
	}
	task := args[0]
	fs := flag.NewFlagSet(task, flag.ContinueOnError)
	dataPath := fs.String("data", "", "fact file (required)")
	specPath := fs.String("spec", "", "specification file (required)")
	simTable := fs.String("simtable", "", "optional tab-separated extension for the 'approx' predicate")
	pairArg := fs.String("pair", "", "constant pair a,b for certmerge/possmerge/justify")
	queryArg := fs.String("query", "", "conjunctive query for certans/possans, e.g. \"(x) : R(x,y)\"")
	limit := fs.Int("n", 0, "solution limit for solve (0 = all)")
	budget := fs.Int("budget", 0, "search state budget (0 = default)")
	parallel := fs.Int("parallel", 0, "search parallelism (0 = GOMAXPROCS, 1 = sequential)")
	timeout := fs.Duration("timeout", 0, "wall-clock deadline for the search tasks (0 = none)")
	statsFlag := fs.Bool("stats", false, "print solver statistics to stderr after the task")
	statsJSON := fs.Bool("stats-json", false, "print solver statistics as JSON to stderr after the task")
	tracePath := fs.String("trace", "", "write a JSONL span trace to FILE")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *dataPath == "" || *specPath == "" {
		return fmt.Errorf("-data and -spec are required")
	}

	var rec *lace.StatsRegistry
	if *statsFlag || *statsJSON || *tracePath != "" {
		rec = lace.NewRecorder()
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				return err
			}
			defer f.Close()
			rec.TraceTo(f)
		}
	}

	opts := lace.Options{MaxStates: *budget, Parallelism: *parallel}
	if rec != nil {
		opts.Recorder = rec
	}
	query := ""
	if task == "certans" || task == "possans" {
		if *queryArg == "" {
			return fmt.Errorf("-query is required")
		}
		query = *queryArg
	}
	e, err := load(*dataPath, *specPath, *simTable, query, opts)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	in := e.d.Interner()
	defer func() {
		if rec == nil {
			return
		}
		// Only a task that resolved the instance reports its shards;
		// -stats never adds a resolution of its own.
		if *statsFlag && e.snap.Resolved() {
			if st, err := e.snap.Stats(); err == nil {
				fmt.Fprintf(os.Stderr, "shards: %d (largest %d members), %d stitch rounds (0: answered by the top), %d solves, monolithic fallback: %v\n",
					st.Shards, maxInt(st.Sizes), st.Rounds, st.Solves, st.Monolithic)
			}
		}
		snap := rec.Snapshot()
		if *statsJSON {
			if b, err := json.Marshal(snap); err == nil {
				fmt.Fprintln(os.Stderr, string(b))
			}
		} else if *statsFlag {
			fmt.Fprint(os.Stderr, snap.Format())
		}
	}()

	parsePair := func() (lace.Const, lace.Const, error) {
		parts := strings.SplitN(*pairArg, ",", 2)
		if len(parts) != 2 {
			return 0, 0, fmt.Errorf("-pair requires the form a,b")
		}
		a, ok := in.Lookup(strings.TrimSpace(parts[0]))
		if !ok {
			return 0, 0, fmt.Errorf("constant %q not in the database", parts[0])
		}
		b, ok := in.Lookup(strings.TrimSpace(parts[1]))
		if !ok {
			return 0, 0, fmt.Errorf("constant %q not in the database", parts[1])
		}
		return a, b, nil
	}

	// Every task runs through here so an interruption — a tripped -budget
	// or an expired -timeout — is reported uniformly: whatever partial
	// output the task printed stays valid, a marker line flags the stop
	// on stdout, and the process still exits non-zero.
	taskErr := func() error {
		switch task {
		case "check":
			fmt.Printf("database: %d facts, %d constants\n", e.d.NumFacts(), in.Size())
			fmt.Printf("spec: %d hard, %d soft, %d denials\n",
				len(e.spec.HardRules()), len(e.spec.SoftRules()), len(e.spec.Denials))
			fmt.Printf("restricted (no inequalities in denials): %v\n", e.spec.IsRestricted())
			fmt.Printf("FDs only: %v, hard-only: %v, denial-free: %v\n",
				e.spec.FDsOnly(), e.spec.IsHardOnly(), e.spec.IsDenialFree())
			fmt.Printf("merge attributes: %v\n", e.spec.MergeAttributes(e.d.Schema()))
			fmt.Printf("sim attributes:   %v\n", e.spec.SimAttributes(e.d.Schema()))
			return nil

		case "existence":
			sol, ok, err := e.snap.ExistenceCtx(ctx)
			if err != nil {
				return err
			}
			if !ok {
				fmt.Println("NO: no solution exists")
				return nil
			}
			fmt.Printf("YES: witness %s\n", sol.Format(in))
			return nil

		case "solve":
			count := 0
			err := e.snap.Engine().SolutionsCtx(ctx, func(E *eqrel.Partition) bool {
				count++
				fmt.Printf("solution %d: %s\n", count, E.Format(in))
				return *limit > 0 && count >= *limit
			})
			if err != nil {
				return err
			}
			fmt.Printf("%d solution(s)\n", count)
			return nil

		case "maxsolve":
			ms, err := e.snap.MaximalSolutionsCtx(ctx)
			if err != nil {
				return err
			}
			for i, m := range ms {
				fmt.Printf("maximal %d: %s\n", i+1, m.Format(in))
			}
			fmt.Printf("%d maximal solution(s)\n", len(ms))
			return nil

		case "merges":
			cm, err := e.snap.CertainMergesCtx(ctx)
			if err != nil {
				return err
			}
			pm, err := e.snap.PossibleMergesCtx(ctx)
			if err != nil {
				return err
			}
			certain := make(map[lace.Pair]bool, len(cm))
			for _, p := range cm {
				certain[p] = true
			}
			for _, p := range pm {
				status := "possible"
				if certain[p] {
					status = "CERTAIN"
				}
				fmt.Printf("%-8s %s = %s\n", status, in.Name(p.A), in.Name(p.B))
			}
			fmt.Printf("%d certain, %d possible\n", len(cm), len(pm))
			return nil

		case "certmerge", "possmerge":
			a, b, err := parsePair()
			if err != nil {
				return err
			}
			merges := e.snap.PossibleMergesCtx
			if task == "certmerge" {
				merges = e.snap.CertainMergesCtx
			}
			pairs, err := merges(ctx)
			if err != nil {
				return err
			}
			fmt.Println(verdict(slices.Contains(pairs, eqrel.MakePair(a, b))))
			return nil

		case "certans", "possans":
			q := e.query
			answers := e.snap.PossibleAnswersCtx
			if task == "certans" {
				answers = e.snap.CertainAnswersCtx
			}
			ans, err := answers(ctx, q)
			if err != nil {
				return err
			}
			if len(q.Head) == 0 {
				fmt.Println(verdict(len(ans) > 0))
				return nil
			}
			for _, t := range ans {
				parts := make([]string, len(t))
				for i, c := range t {
					parts[i] = in.Name(c)
				}
				fmt.Println(strings.Join(parts, ", "))
			}
			fmt.Printf("%d answer(s)\n", len(ans))
			return nil

		case "justify":
			a, b, err := parsePair()
			if err != nil {
				return err
			}
			xs, err := e.snap.ExplainMergesCtx(ctx, []lace.Pair{eqrel.MakePair(a, b)})
			if err != nil {
				return err
			}
			if xs[0].Justification == nil {
				return fmt.Errorf("pair is not merged in any maximal solution")
			}
			fmt.Print(xs[0].Justification.Format(in))
			return nil

		case "encode":
			prog, err := lace.EncodeASP(e.d, e.spec, e.sims)
			if err != nil {
				return err
			}
			fmt.Print(prog.String())
			return nil

		case "greedy":
			sol, ok, err := e.snap.Engine().GreedySolutionCtx(ctx)
			if err != nil {
				return err
			}
			fmt.Printf("solution: %s\n", sol.Format(in))
			if !ok {
				fmt.Println("warning: greedy pass ended with violated denial constraints")
			}
			return nil

		default:
			return fmt.Errorf("unknown task %q", task)
		}
	}()
	if limits.IsStop(taskErr) {
		fmt.Printf("INTERRUPTED: %v (partial results)\n", taskErr)
	}
	return taskErr
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func verdict(ok bool) string {
	if ok {
		return "YES"
	}
	return "NO"
}

// load reads the inputs, parses query when it is not empty, and builds
// the resolution snapshot.
func load(dataPath, specPath, simTable, query string, opts lace.Options) (*env, error) {
	d, spec, sims, err := lace.LoadFiles(dataPath, specPath, simTable)
	if err != nil {
		return nil, err
	}
	var q *lace.CQ
	if query != "" {
		if q, err = lace.ParseQuery(query, d.Schema(), d.Interner(), sims); err != nil {
			return nil, err
		}
	}
	snap, err := lace.NewSnapshot(d, spec, sims, opts)
	if err != nil {
		return nil, err
	}
	return &env{d: d, spec: spec, sims: sims, snap: snap, query: q}, nil
}
