package main

// batch.go: the resolve-batch workload — the offline user's full
// resolution with no HTTP in between. A child process generates a
// GenerateScale instance (a fresh similarity memo every time) and runs
// core.NewSharded, then PossibleMergesCtx, CertainMergesCtx and
// MaximalSolutionsCtx; that is one operation. Every operation resolves
// a different instance, drawn from the workload seed: resolve time
// varies by about 15% between instances of one size, so a run's median
// has to span dozens of them. After the measured window the first
// instance is resolved once more and must give identical merge sets.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/workload"
)

const (
	batchEntities = 5000
	// batchSegments is the number of child processes a run is split
	// into, so the machine's speed is measured between them.
	batchSegments = 5
)

// resolution is one full sharded resolve of an instance.
type resolution struct {
	possible, certain []eqrel.Pair
	maximal           []*eqrel.Partition
	stats             core.ShardStats
}

// resolveSharded runs the batch pipeline on ds. Each stage is handed to
// span so a traced run can time it.
func resolveSharded(ctx context.Context, ds *workload.Dataset, opts core.Options, span func(name string, f func() error) error) (*resolution, error) {
	var r resolution
	var se *core.ShardedEngine
	steps := []struct {
		name string
		f    func() error
	}{
		{"core.new_sharded", func() (err error) {
			se, err = core.NewSharded(ds.DB, ds.Spec, ds.Sims, opts, core.ShardOptions{})
			return err
		}},
		{"core.sharded_possible", func() (err error) { r.possible, err = se.PossibleMergesCtx(ctx); return err }},
		{"core.sharded_certain", func() (err error) { r.certain, err = se.CertainMergesCtx(ctx); return err }},
		{"core.sharded_maximal", func() (err error) { r.maximal, err = se.MaximalSolutionsCtx(ctx); return err }},
	}
	for _, s := range steps {
		if err := span(s.name, s.f); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	var err error
	r.stats, err = se.Stats()
	return &r, err
}

func noSpan(_ string, f func() error) error { return f() }

// check verifies the resolution against the definitions linking the
// three answers: the possible merges are the union of the maximal
// solutions' pairs, the certain merges their intersection.
func (r *resolution) check() error {
	if len(r.maximal) == 0 {
		if len(r.certain) != 0 || len(r.possible) != 0 {
			return fmt.Errorf("no maximal solution but %d certain and %d possible merges", len(r.certain), len(r.possible))
		}
		return nil
	}
	count := make(map[eqrel.Pair]int)
	for _, m := range r.maximal {
		for _, p := range m.Pairs() {
			count[p]++
		}
	}
	if len(count) != len(r.possible) {
		return fmt.Errorf("%d possible merges, %d pairs in the union of maximal solutions", len(r.possible), len(count))
	}
	for _, p := range r.possible {
		if count[p] == 0 {
			return fmt.Errorf("possible merge %v is in no maximal solution", p)
		}
	}
	certain := 0
	for _, n := range count {
		if n == len(r.maximal) {
			certain++
		}
	}
	if certain != len(r.certain) {
		return fmt.Errorf("%d certain merges, %d pairs in every maximal solution", len(r.certain), certain)
	}
	for _, p := range r.certain {
		if count[p] != len(r.maximal) {
			return fmt.Errorf("certain merge %v is missing from a maximal solution", p)
		}
	}
	return nil
}

// digest hashes the three answers by constant name.
func (r *resolution) digest(in *db.Interner) string {
	h := sha256.New()
	pairs := func(tag string, ps []eqrel.Pair) {
		fmt.Fprintf(h, "%s %d\n", tag, len(ps))
		for _, p := range ps {
			fmt.Fprintf(h, "%s %s\n", in.Name(p.A), in.Name(p.B))
		}
	}
	pairs("possible", r.possible)
	pairs("certain", r.certain)
	for _, m := range r.maximal {
		pairs("maximal", m.Pairs())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// batchOp is one operation of a batch child.
type batchOp struct {
	Seed     int64   `json:"seed"`
	GenS     float64 `json:"gen_s"`
	ResolveS float64 `json:"resolve_s"`
	Digest   string  `json:"digest"`
	F1       float64 `json:"f1"`
	Err      string  `json:"err,omitempty"`
	// Repeat marks the repetition after the measured window.
	Repeat bool `json:"repeat,omitempty"`
}

type batchSummary struct {
	Ops       []batchOp `json:"ops"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
}

// batchOnce generates and resolves one instance.
func batchOnce(seed int64) batchOp {
	op := batchOp{Seed: seed}
	start := time.Now()
	ds, err := scaleDataset(seed, batchEntities)
	op.GenS = time.Since(start).Seconds()
	if err != nil {
		op.Err = err.Error()
		return op
	}
	start = time.Now()
	res, err := resolveSharded(context.Background(), ds, core.Options{}, noSpan)
	op.ResolveS = time.Since(start).Seconds()
	if err == nil {
		err = res.check()
	}
	if err != nil {
		op.Err = err.Error()
		return op
	}
	op.Digest = res.digest(ds.DB.Interner())
	pred := eqrel.NewFromPairs(ds.Truth.N(), res.certain)
	op.F1 = workload.Score(pred, ds.Truth).F1
	return op
}

func batchChild(spec childSpec) error {
	var sum batchSummary
	next := seedStream(spec.GenSeed)
	start := time.Now()
	for len(sum.Ops) == 0 || time.Since(start).Seconds() < spec.Seconds {
		sum.Ops = append(sum.Ops, batchOnce(next()))
	}
	again := batchOnce(sum.Ops[0].Seed)
	again.Repeat = true
	sum.Ops = append(sum.Ops, again)
	var err error
	sum.PeakRSSMB, err = vmHWM("/proc/self/status")
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(sum)
}

// checkBatch counts failed operations: an error, or merge sets that
// differ from an earlier resolution of the same instance.
func checkBatch(r *runResult, ops []batchOp) {
	first := make(map[int64]string)
	for _, op := range ops {
		r.Attempted++
		switch prev, seen := first[op.Seed]; {
		case op.Err != "":
			r.fail("seed %d: %s", op.Seed, op.Err)
		case seen && prev != op.Digest:
			r.fail("seed %d: merge sets differ between repetitions (%s vs %s)", op.Seed, prev, op.Digest)
		case !seen:
			first[op.Seed] = op.Digest
		}
	}
}

// runBatch is the untraced resolve-batch run, in batchSegments child
// processes of an equal share of the run each.
func runBatch(seed int64, seconds float64) (*runResult, error) {
	r := newResult("resolve-batch", seed, false)
	next := seedStream(seed)
	var ps panelStats
	var f1 []float64
	slow := slowdowns()
	for i := 0; i < batchSegments; i++ {
		ch, err := startChild(childSpec{Role: "batch", Workload: "resolve-batch", GenSeed: next(), Seconds: seconds / batchSegments})
		if err != nil {
			return nil, err
		}
		var sum batchSummary
		readErr := ch.readJSON(&sum)
		if err := ch.stop(); err != nil {
			return nil, fmt.Errorf("batch child: %w", err)
		}
		if readErr != nil {
			return nil, readErr
		}
		checkBatch(r, sum.Ops)
		var lats, gens []time.Duration
		var busy time.Duration
		for _, op := range sum.Ops {
			if !op.Repeat {
				lats = append(lats, fromSeconds(op.ResolveS))
				gens = append(gens, fromSeconds(op.GenS))
				busy += fromSeconds(op.ResolveS)
				f1 = append(f1, op.F1)
			}
		}
		ps.add(slow(), lats, busy, gens, sum.PeakRSSMB)
	}
	ps.report(r)
	fmt.Fprintf(os.Stderr, "lacebm: resolve-batch: certain-merge F1 against the generator's truth: median %.4f, min %.4f over %d instances\n",
		median(f1), sorted(f1)[0], len(f1))
	return r, nil
}
