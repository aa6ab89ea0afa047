package core

// shard_bench_test.go measures end-to-end sharded resolution on the
// scale workload: one iteration is one complete resolve — the stitch
// fixpoint with its per-shard solves and the merge-set composition —
// of a fresh EpochSnapshot over a 2000-entity Zipf-skewed instance.
//
// When LACE_BENCH_GUARD=1 (set by the CI shard job, not by the normal
// test run), BenchmarkShardWorkload additionally writes
// BENCH_shard.json next to the package (committed, unlike the serve
// benchmark's artifact, so the scaling numbers travel with the repo)
// and fails if throughput drops more than 25% below the committed
// floor in testdata/shard_bench_baseline.json. The floor (75% of a
// 60 000 entities/s baseline) sits about 4x under the slowest reading
// on a 2-vCPU VM (172 000-283 000 entities/s at -benchtime 3x), so the
// guard trips on a real regression, not on run-to-run noise.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/workload"
)

// shardBenchResult is the BENCH_shard.json schema.
type shardBenchResult struct {
	Entities       int     `json:"entities"`
	Facts          int     `json:"facts"`
	Shards         int     `json:"shards"`
	Rounds         int     `json:"rounds"`
	Solves         int     `json:"solves"`
	SecondsPerRun  float64 `json:"seconds_per_resolve"`
	EntitiesPerSec float64 `json:"entities_per_sec"`
}

type shardBenchBaseline struct {
	EntitiesPerSec float64 `json:"entities_per_sec"`
}

// BenchmarkShardWorkload: the guarded sharded-resolution benchmark.
func BenchmarkShardWorkload(b *testing.B) {
	const entities = 2000
	ds, err := workload.GenerateScale(workload.DefaultScaleConfig(20, entities))
	if err != nil {
		b.Fatal(err)
	}
	// NewSnapshot freezes the database, once; freeze it untimed so
	// every iteration times the resolve alone.
	ds.DB.Freeze()
	var last ShardStats
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		se, err := NewSnapshot(ds.DB, ds.Spec, ds.Sims, Options{Parallelism: 1}, 0)
		if err != nil {
			b.Fatal(err)
		}
		pm, err := se.PossibleMergesCtx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(pm) == 0 {
			b.Fatal("scale workload resolved to zero possible merges")
		}
		if last, err = se.Stats(); err != nil {
			b.Fatal(err)
		}
	}
	total := time.Since(start)
	b.StopTimer()

	res := shardBenchResult{
		Entities:       entities,
		Facts:          ds.DB.NumFacts(),
		Shards:         last.Shards,
		Rounds:         last.Rounds,
		Solves:         last.Solves,
		SecondsPerRun:  total.Seconds() / float64(b.N),
		EntitiesPerSec: float64(entities) * float64(b.N) / total.Seconds(),
	}
	b.ReportMetric(res.EntitiesPerSec, "entities/s")
	b.ReportMetric(res.SecondsPerRun, "s/resolve")

	// The guard needs more than the runner's single-iteration probe pass
	// (the CI job runs with -benchtime=3x).
	if os.Getenv("LACE_BENCH_GUARD") != "1" || b.N < 2 {
		return
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_shard.json", append(raw, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	baseRaw, err := os.ReadFile("testdata/shard_bench_baseline.json")
	if err != nil {
		b.Fatal(err)
	}
	var base shardBenchBaseline
	if err := json.Unmarshal(baseRaw, &base); err != nil {
		b.Fatal(err)
	}
	if floor := base.EntitiesPerSec * 0.75; res.EntitiesPerSec < floor {
		b.Fatalf("throughput regression: %.1f entities/s < %.1f (75%% of committed %.1f baseline)",
			res.EntitiesPerSec, floor, base.EntitiesPerSec)
	}
	b.Logf("guard: %.1f entities/s >= 75%% of %.1f baseline (%d shards, %d solves)",
		res.EntitiesPerSec, base.EntitiesPerSec, res.Shards, res.Solves)
}

// TestShardBenchBaselineReadable pins the committed baseline's shape so
// a malformed edit fails fast rather than in the guarded CI job.
func TestShardBenchBaselineReadable(t *testing.T) {
	raw, err := os.ReadFile("testdata/shard_bench_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base shardBenchBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	if base.EntitiesPerSec <= 0 {
		t.Fatalf("baseline entities_per_sec = %v, want positive", base.EntitiesPerSec)
	}
	_ = fmt.Sprintf("%v", base)
}
