package core

// stream_bench_test.go measures the payoff of the streaming layer: one
// iteration is one applied single-fact batch (alternately retracting
// and re-inserting the same Author fact) followed by a full resolve of
// the new epoch through a MutableSession — so the lattice top is
// carried from the previous epoch's (re-closing the classes the batch
// reaches) and, when it is inconsistent, the stitch is recomputed,
// while similarity verdicts come out of the shared memo. The baseline is the same
// instance resolved from scratch: a freshly generated dataset (cold
// similarity memos) on a fresh EpochSnapshot.
//
// When LACE_BENCH_GUARD=1 (set by the CI stream job, not the normal
// test run), BenchmarkIncrementalUpdate writes BENCH_stream.json next
// to the package (committed, so the numbers travel with the repo) and
// fails unless the incremental batch-apply is at least 5x faster than
// the full rebuild at n=2000. The real gap is much wider; 5x is the
// floor that separates "incremental maintenance works" from "we are
// re-solving everything every epoch".

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/workload"
)

// streamBenchResult is the BENCH_stream.json schema.
type streamBenchResult struct {
	Entities          int     `json:"entities"`
	Facts             int     `json:"facts"`
	Epochs            int     `json:"epochs"`
	SecondsPerBatch   float64 `json:"seconds_per_batch"`
	SecondsPerRebuild float64 `json:"seconds_per_rebuild"`
	Speedup           float64 `json:"speedup"`
}

// streamBenchEntities keeps the benchmark and the guard description in
// one place: the workload size the 5x floor is pinned at.
const streamBenchEntities = 2000

// BenchmarkIncrementalUpdate: the guarded streaming benchmark.
func BenchmarkIncrementalUpdate(b *testing.B) {
	ctx := context.Background()
	cfg := workload.DefaultScaleConfig(20, streamBenchEntities)
	ds, err := workload.GenerateScale(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMutable(ds.DB, ds.Spec, ds.Sims, Options{Parallelism: 1}, 0)
	if err != nil {
		b.Fatal(err)
	}
	// Epoch 0 pays the full first resolve, warming the shared similarity
	// memo; it is not part of the measurement.
	if _, err := m.Snapshot().PossibleMergesCtx(ctx); err != nil {
		b.Fatal(err)
	}

	// The toggled fact: the first Author tuple, rendered to names so the
	// same FactSpec retracts and re-inserts it across epochs.
	tuples := ds.DB.Tuples("Author")
	if len(tuples) == 0 {
		b.Fatal("scale workload has no Author facts")
	}
	in := ds.DB.Interner()
	spec := db.FactSpec{Rel: "Author"}
	for _, c := range tuples[0] {
		spec.Args = append(spec.Args, in.Name(c))
	}

	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		batch := Batch{Retract: []db.FactSpec{spec}}
		if i%2 == 1 {
			batch = Batch{Insert: []db.FactSpec{spec}}
		}
		res, snap, err := m.ApplyDurable(batch, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Inserted+res.Retracted != 1 {
			b.Fatalf("epoch %d: batch changed %d facts, want 1", res.Epoch, res.Inserted+res.Retracted)
		}
		if _, err := snap.PossibleMergesCtx(ctx); err != nil {
			b.Fatal(err)
		}
	}
	incTotal := time.Since(start)
	b.StopTimer()
	perBatch := incTotal.Seconds() / float64(b.N)
	b.ReportMetric(perBatch, "s/batch")

	if os.Getenv("LACE_BENCH_GUARD") != "1" || b.N < 2 {
		return
	}

	// Baseline: resolve the same instance from scratch. A fresh
	// GenerateScale call rebuilds the similarity registry too, so its
	// memo tier is cold, and the fresh EpochSnapshot gets no solve
	// cache — exactly what every epoch would cost without the
	// streaming layer.
	const rebuilds = 2
	var rebuildTotal time.Duration
	for i := 0; i < rebuilds; i++ {
		cold, err := workload.GenerateScale(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// NewSnapshot freezes the database, a one-time cost no epoch
		// pays (db.Apply freezes each overlay); freeze it untimed.
		cold.DB.Freeze()
		t0 := time.Now()
		se, err := NewSnapshot(cold.DB, cold.Spec, cold.Sims, Options{Parallelism: 1}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := se.PossibleMergesCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
		rebuildTotal += time.Since(t0)
	}
	perRebuild := rebuildTotal.Seconds() / rebuilds

	res := streamBenchResult{
		Entities:          streamBenchEntities,
		Facts:             ds.DB.NumFacts(),
		Epochs:            b.N,
		SecondsPerBatch:   perBatch,
		SecondsPerRebuild: perRebuild,
		Speedup:           perRebuild / perBatch,
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_stream.json", append(raw, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	if res.Speedup < 5 {
		b.Fatalf("incremental batch-apply only %.1fx faster than full rebuild (%.3fs vs %.3fs), want >= 5x",
			res.Speedup, perBatch, perRebuild)
	}
	b.Logf("guard: %.1fx (%.4fs/batch vs %.3fs/rebuild over %d epochs)",
		res.Speedup, perBatch, perRebuild, b.N)
}
