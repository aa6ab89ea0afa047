package core

// mutable.go: the streaming layer. A MutableSession owns an epoch
// lineage of databases related by db.Apply — epoch 0 is the loaded
// instance, each applied fact batch produces epoch n+1 — and, per
// epoch, a fully-resolved snapshot handle. Readers take the current
// EpochSnapshot (one atomic load) and keep it for as long as they like;
// a writer applying the next batch never disturbs them, because every
// structure a snapshot reaches is frozen: the database (copy-on-write
// overlay over its parent), the engine, and any resolved shard
// results.
//
// Incrementality comes from four reuses, none of which weakens the
// exactness argument of DESIGN.md §11:
//   - db.Apply shares every untouched relation with the parent epoch,
//     and the interner too unless the batch names a new constant (then
//     a clone with ids preserved), so constant ids — and everything
//     keyed by them — stay valid along the lineage;
//   - every epoch reads the session's one similarity registry, whose
//     memo persists across epochs (a verdict is a pure function of two
//     names, so it is never stale), so verdicts are computed once per
//     lineage, not once per epoch;
//   - every epoch's session shares its predecessor's compiled plans
//     (newSessionFrom);
//   - each epoch's lattice top is carried from its predecessor's: the
//     epoch re-closes only the top's classes its batch can have
//     changed, continuing the closure from the rest, and re-records
//     only the classes of the stitch's coupling analysis whose matches
//     the batch can have changed (carry.go, DESIGN.md §12). Only when
//     the predecessor's top failed or clashed at a similarity position
//     (where the epoch is solved whole), or ends a
//     chain of maxPendingTops unresolved epochs, does an epoch close
//     the identity over its whole database.

import (
	"sync"
	"sync/atomic"

	"repro/internal/db"
	"repro/internal/rules"
	"repro/internal/sim"
)

// Batch is one atomic mutation: retractions apply first, then
// insertions. Either list may be empty; an empty batch still advances
// the epoch (with an unchanged fingerprint).
type Batch struct {
	Insert  []db.FactSpec `json:"insert,omitempty"`
	Retract []db.FactSpec `json:"retract,omitempty"`
}

// ApplyResult summarizes one applied batch.
type ApplyResult struct {
	// Epoch is the new epoch number (the first batch yields 1).
	Epoch uint64
	// Inserted / Retracted count the facts actually added and removed
	// (no-op inserts of present facts and retracts of absent facts are
	// excluded).
	Inserted, Retracted int
	// Fingerprint is the new database's content fingerprint.
	Fingerprint string
	// DirtyShards is the number of the previous epoch's shard
	// components whose support mentions a constant of the batch. It
	// reports which components a batch names; it does not predict what
	// the next epoch re-closes or re-solves (carry.go decides that from
	// the rule matches the batch reaches). After
	// an epoch answered by the top (ShardStats.Rounds == 0) the shards
	// are the nontrivial T-classes, each supported by its own members
	// only, so it counts the T-classes the batch names: a lower bound on
	// the classes the batch can change, since a batch constant reaching
	// a class only through a rule body is not counted (an inserted
	// Author tuple that σ2 joins to a class member by a similar email at
	// the same institution). It is -1 when unavailable: a previous epoch
	// that never resolved, or one that fell back to a monolithic solve.
	DirtyShards int
}

// MutableSession accepts batched fact mutations against a fixed
// specification and similarity registry, maintaining one resolved
// EpochSnapshot per epoch. ApplyDurable is single-writer (internally
// serialized); Snapshot may be called from any goroutine.
type MutableSession struct {
	mu  sync.Mutex // serializes ApplyDurable
	cur atomic.Pointer[EpochSnapshot]
}

// NewMutable builds a mutable session over the initial database,
// numbered epoch (0 for a fresh instance). Epoch 0 is NewSnapshot's,
// kept carryable so that its successor reads its top; all later epochs
// are copy-on-write overlays.
//
// Recovery passes a nonzero epoch: a database rebuilt by replaying a
// write-ahead log through epoch N resumes its lineage at N, so the next
// batch yields N+1 and epoch numbers stay aligned with the log.
func NewMutable(d *db.Database, spec *rules.Spec, sims *sim.Registry, opts Options, epoch uint64) (*MutableSession, error) {
	snap, err := NewSnapshot(d, spec, sims, opts, epoch)
	if err != nil {
		return nil, err
	}
	snap.carryable = true
	m := &MutableSession{}
	m.cur.Store(snap)
	return m, nil
}

// Snapshot returns the current epoch's snapshot. The caller may hold
// it across any number of subsequent ApplyDurable calls; it keeps
// answering against its own epoch.
func (m *MutableSession) Snapshot() *EpochSnapshot { return m.cur.Load() }

// ApplyDurable atomically applies one batch, producing the next epoch.
// On a validation error the batch is rejected whole and the current
// epoch is unchanged. The returned snapshot is the new current
// snapshot; it is built but not yet resolved — the first result call
// (or a background warmer) pays the resolve.
//
// A non-nil precommit is called with the would-be result after the
// next epoch is fully built but before it is published. If it returns
// an error the staged epoch is discarded — the session stays at the
// previous epoch and the error is returned. A write-ahead server passes
// the log append (+fsync) as precommit, so a batch is never observable
// by readers unless its record is durable. The hook runs under the
// writer lock; it must not call back into the session.
func (m *MutableSession) ApplyDurable(b Batch, precommit func(ApplyResult) error) (ApplyResult, *EpochSnapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prev := m.cur.Load()
	nd, ins, ret, err := db.Apply(prev.d, b.Insert, b.Retract)
	if err != nil {
		return ApplyResult{}, nil, err
	}
	snap := prev.next(nd, batchFacts(prev.d.Interner(), b.Retract), batchFacts(nd.Interner(), b.Insert))
	res := ApplyResult{
		Epoch:       snap.epoch,
		Inserted:    ins,
		Retracted:   ret,
		Fingerprint: snap.fp,
	}
	consts := make(map[db.Const]bool)
	in := nd.Interner()
	for _, fs := range [][]db.FactSpec{b.Insert, b.Retract} {
		for _, f := range fs {
			for _, n := range f.Args {
				if c, ok := in.Lookup(n); ok {
					consts[c] = true
				}
			}
		}
	}
	res.DirtyShards = prev.TouchedShards(consts)
	if precommit != nil {
		if err := precommit(res); err != nil {
			return ApplyResult{}, nil, err
		}
	}
	m.cur.Store(snap)
	return res, snap, nil
}

// batchFacts resolves a batch's facts to constant ids in in, skipping
// any fact naming a constant in does not know (a retraction of such a
// fact matches no tuple).
func batchFacts(in *db.Interner, specs []db.FactSpec) []db.Fact {
	out := make([]db.Fact, 0, len(specs))
next:
	for _, f := range specs {
		args := make([]db.Const, len(f.Args))
		for i, n := range f.Args {
			c, ok := in.Lookup(n)
			if !ok {
				continue next
			}
			args[i] = c
		}
		out = append(out, db.Fact{Rel: f.Rel, Args: args})
	}
	return out
}
