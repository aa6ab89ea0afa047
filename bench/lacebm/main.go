// Command lacebm is LACE's benchmark. It runs four workloads against
// the resolution stack — read-hot and read-cold (a laced serving small
// instances with the response cache on and off), write-mixed (a
// sharded, mutable, write-ahead-logged laced under durable one-fact
// writes and reads) and resolve-batch (offline sharded resolution) —
// checks every output it gets, and prints each metric by name and unit
// followed by one JSON result line.
//
//	lacebm run [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	lacebm compare A.jsonl B.jsonl
//
// run without -workload runs all four. -trace 1 replaces the end-to-end
// metrics with the per-layer ones of a traced run. -out appends one
// JSON record per metric to FILE; compare reads two such files (each
// any number of runs) and says, per workload and metric, whether their
// medians agree within the bound BENCHMARK.json fixes. Run it from the
// repository root (bench/run.sh builds it there).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "run":
		err = runCmd(args, stdout, stderr)
	case "compare":
		err = compareCmd(args, stdout)
	default:
		err = fmt.Errorf("unknown command %q (want run or compare)", cmd)
	}
	if err != nil {
		fmt.Fprintln(stderr, "lacebm:", err)
		return 1
	}
	return 0
}

func runCmd(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lacebm run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadFlag = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default all)")
		seed         = fs.Int64("seed", 1, "workload seed: the same seed gives the same instances and operations")
		seconds      = fs.Float64("seconds", 20, "measured seconds per run")
		trace        = fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
		out          = fs.String("out", "", "append one JSON record per metric to this file")
		commit       = fs.String("commit", "unknown", "commit to record in -out records")
		tmpDir       = fs.String("tmp", ".bench_build/tmp", "directory for write-ahead logs and span traces")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	case *seconds <= 0:
		return fmt.Errorf("-seconds %v: want a positive duration", *seconds)
	}
	names := workloadNames
	if *workloadFlag != "" {
		if !known(*workloadFlag) {
			return fmt.Errorf("unknown workload %q (want one of %s)", *workloadFlag, strings.Join(workloadNames, ", "))
		}
		names = []string{*workloadFlag}
	}
	if err := checkManifestFile("BENCHMARK.json"); err != nil {
		return err
	}
	if err := os.MkdirAll(*tmpDir, 0o755); err != nil {
		return err
	}
	for _, w := range names {
		r, err := runOne(w, *seed, *seconds, *trace == 1, *tmpDir)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		if err := r.report(stdout, stderr); err != nil {
			return err
		}
		if *out != "" {
			if err := appendRecords(*out, r.records(*commit)); err != nil {
				return err
			}
		}
	}
	return nil
}

func known(w string) bool {
	for _, n := range workloadNames {
		if n == w {
			return true
		}
	}
	return false
}

func runOne(w string, seed int64, seconds float64, trace bool, tmpDir string) (*runResult, error) {
	if trace {
		return runTraced(w, seed, seconds, tmpDir)
	}
	switch w {
	case "read-hot", "read-cold":
		return runRead(w, seed, seconds, readPanel)
	case "write-mixed":
		return runWrite(seed, seconds, tmpDir)
	default:
		return runBatch(seed, seconds)
	}
}

// checkManifestFile validates BENCHMARK.json when the working directory
// has one (the repository root does), so a run never reports metrics the
// manifest does not declare.
func checkManifestFile(path string) error {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	m, err := parseManifest(raw)
	if err != nil {
		return err
	}
	return validateManifest(m)
}
