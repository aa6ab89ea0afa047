package core

// durable_test.go pins the write-ahead contract of ApplyDurable: a
// failing precommit hook discards the staged epoch entirely (readers
// never observe it, the next batch renumbers over it), and NewMutable
// given an epoch resumes a recovered lineage at its logged epoch.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fixtures"
)

func TestApplyDurablePrecommitRollback(t *testing.T) {
	ctx := context.Background()
	f := fixtures.New()
	m, err := NewMutable(f.DB, f.Spec, f.Sims, Options{Parallelism: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap0 := m.Snapshot()
	want, err := snap0.CertainMergesCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("wal append failed")
	var staged ApplyResult
	_, _, err = m.ApplyDurable(Batch{}, func(res ApplyResult) error {
		staged = res
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("precommit error not propagated: %v", err)
	}
	if staged.Epoch != 1 {
		t.Fatalf("precommit saw epoch %d, want the staged epoch 1", staged.Epoch)
	}
	if cur := m.Snapshot(); cur != snap0 {
		t.Fatalf("failed precommit published epoch %d", cur.Epoch())
	}

	// The next batch must renumber over the discarded epoch, and the
	// session must still answer.
	res, snap1, err := m.ApplyDurable(Batch{}, func(ApplyResult) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || snap1.Epoch() != 1 {
		t.Fatalf("epoch after rollback = %d, want 1", res.Epoch)
	}
	got, err := snap1.CertainMergesCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("certain merges changed across a no-op epoch: %d vs %d", len(got), len(want))
	}
}

func TestNewMutableAtResumesEpoch(t *testing.T) {
	f := fixtures.New()
	m, err := NewMutable(f.DB, f.Spec, f.Sims, Options{Parallelism: 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Epoch(); got != 7 {
		t.Fatalf("initial epoch = %d, want 7", got)
	}
	res, _, err := m.ApplyDurable(Batch{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 8 {
		t.Fatalf("first apply after resume = epoch %d, want 8", res.Epoch)
	}
}
