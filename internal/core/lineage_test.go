//go:build go1.24

package core

// lineage_test.go checks that carrying the lattice top along an epoch
// lineage pins no old epoch: a successor drops its predecessor once its
// own top is computed, and a chain of unresolved epochs is bounded. It
// needs weak pointers (Go 1.24).

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"repro/internal/db"
	"repro/internal/workload"
)

// TestEpochLineageCollectable: after 50 applies with only the latest
// snapshot held, the snapshots and induced databases of epoch 0 and every
// intermediate epoch are collectable; so are all but the last
// maxPendingTops snapshots of 50 applies nobody resolved.
func TestEpochLineageCollectable(t *testing.T) {
	ctx := context.Background()
	ds, err := workload.GenerateScale(workload.DefaultScaleConfig(3, 100))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMutable(ds.DB, ds.Spec, ds.Sims, Options{Parallelism: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := ds.DB.Interner()
	author := ds.DB.Tuples("Author")[0]
	f := db.FactSpec{Rel: "Author", Args: []string{in.Name(author[0]), in.Name(author[1]), in.Name(author[2])}}
	toggle := func(i int) Batch {
		if i%2 == 0 {
			return Batch{Retract: []db.FactSpec{f}}
		}
		return Batch{Insert: []db.FactSpec{f}}
	}
	collected := func() {
		for i := 0; i < 3; i++ {
			runtime.GC()
		}
	}

	var snaps []weak.Pointer[EpochSnapshot]
	var inds []weak.Pointer[db.Database]
	record := func(snap *EpochSnapshot) {
		if _, err := snap.PossibleMergesCtx(ctx); err != nil {
			t.Fatal(err)
		}
		top, err := snap.latticeTop(ctx)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, weak.Make(snap))
		inds = append(inds, weak.Make(top.ind))
	}
	record(m.Snapshot())
	for i := 0; i < 50; i++ {
		_, snap, err := m.ApplyDurable(toggle(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		record(snap)
		if !snap.carried {
			t.Fatalf("epoch %d did not carry its top", snap.Epoch())
		}
	}
	collected()
	for i := 0; i < 50; i++ {
		if snaps[i].Value() != nil {
			t.Errorf("epoch %d's snapshot is still reachable", i)
		}
		if inds[i].Value() != nil {
			t.Errorf("epoch %d's induced database D_T is still reachable", i)
		}
	}
	if snaps[50].Value() == nil || inds[50].Value() == nil {
		t.Fatal("the latest epoch was collected while its snapshot is held")
	}

	// Unresolved epochs link to their predecessors, but a chain stops at
	// maxPendingTops links.
	snaps = snaps[:0]
	for i := 0; i < 50; i++ {
		_, snap, err := m.ApplyDurable(toggle(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, weak.Make(snap))
	}
	collected()
	for i := 0; i < 50-maxPendingTops; i++ {
		if snaps[i].Value() != nil {
			t.Errorf("unresolved epoch %d of 50 is still reachable", i)
		}
	}
	last := m.Snapshot()
	if !last.topDone.Load() {
		if _, err := last.PossibleMergesCtx(ctx); err != nil {
			t.Fatal(err)
		}
	}
	assertCarriedMatchesFresh(t, "the last unresolved epoch", last, ds.Spec, ds.Sims)
	runtime.KeepAlive(m)
}

// TestSnapshotDropsTop: a snapshot from NewSnapshot is no session's
// epoch, so once it has resolved its induced database D_T is
// collectable; a session's epoch 0 keeps it for its successor.
func TestSnapshotDropsTop(t *testing.T) {
	ctx := context.Background()
	for _, session := range []bool{false, true} {
		ds, err := workload.GenerateScale(workload.DefaultScaleConfig(3, 100))
		if err != nil {
			t.Fatal(err)
		}
		var snap *EpochSnapshot
		if session {
			m, err := NewMutable(ds.DB, ds.Spec, ds.Sims, Options{Parallelism: 1}, 0)
			if err != nil {
				t.Fatal(err)
			}
			snap = m.Snapshot()
		} else if snap, err = NewSnapshot(ds.DB, ds.Spec, ds.Sims, Options{Parallelism: 1}, 0); err != nil {
			t.Fatal(err)
		}
		top, err := snap.latticeTop(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ind := weak.Make(top.ind)
		top = nil
		if _, err := snap.PossibleMergesCtx(ctx); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			runtime.GC()
		}
		if kept := ind.Value() != nil; kept != session {
			t.Errorf("session epoch %v: D_T reachable after resolving = %v", session, kept)
		}
		runtime.KeepAlive(snap)
	}
}
