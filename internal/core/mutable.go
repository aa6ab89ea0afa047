package core

// mutable.go: the streaming layer. A MutableSession owns an epoch
// lineage of databases related by db.Apply — epoch 0 is the loaded
// instance, each applied fact batch produces epoch n+1 — and, per
// epoch, a fully-resolved snapshot handle. Readers take the current
// EpochSnapshot (one atomic load) and keep it for as long as they like;
// a writer applying the next batch never disturbs them, because every
// structure a snapshot reaches is frozen: the database (copy-on-write
// overlay over its parent), the engines, and any resolved shard
// results.
//
// Incrementality comes from three reuses, none of which weakens the
// exactness argument of DESIGN.md §11:
//   - db.Apply shares every untouched relation with the parent epoch
//     and clones the interner with ids preserved, so constant ids —
//     and everything keyed by them — stay valid along the lineage;
//   - the similarity memo's shared tier persists across epochs (minus
//     the entries Invalidate drops for retracted names), so verdicts
//     are computed once per lineage, not once per epoch;
//   - every epoch's ShardedEngine shares the session's ShardSolveCache,
//     so a shard whose projected instance a batch did not touch replays
//     its solved results instead of re-searching. The top of the
//     candidate lattice — and, when it is inconsistent, the one-round
//     stitch it seeds — is recomputed every epoch; only solved search
//     spaces are memoized.

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eqrel"
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
	// Epoch is the new epoch number (the first Apply yields 1).
	Epoch uint64
	// Inserted / Retracted count the facts actually added and removed
	// (no-op inserts of present facts and retracts of absent facts are
	// excluded).
	Inserted, Retracted int
	// Fingerprint is the new database's content fingerprint.
	Fingerprint string
	// DirtyShards is the number of the previous epoch's shard
	// components whose support mentions a constant of the batch. After
	// a stitched epoch that is the re-solve surface the batch dirtied.
	// After an epoch answered by the top (ShardStats.Rounds == 0) the
	// shards are the nontrivial T-classes, each supported by its own
	// members only, so it counts the T-classes the batch names: a lower
	// bound, since a batch constant reaching a class only through a
	// rule body is not counted (an inserted Author tuple that σ2 joins
	// to a class member by a similar email at the same institution). It
	// is -1 when unavailable: a previous epoch that never resolved, or
	// one that fell back to a monolithic solve.
	DirtyShards int
}

// EpochSnapshot is one epoch's immutable resolution handle: the frozen
// database, its fingerprint, and the ShardedEngine resolving it.
// Snapshots taken before a mutation keep answering against their own
// epoch.
//
// The snapshot is the one place an epoch is resolved: every result
// method answers from the epoch's ShardedEngine, which asks the lattice
// top first and resolves the epoch once, and evaluates queries and
// derivations on a private Fork of its engine. The result methods are
// safe for concurrent use.
type EpochSnapshot struct {
	epoch uint64
	d     *db.Database
	fp    string
	se    *ShardedEngine
}

// Epoch returns the snapshot's epoch number (0 for the initial load).
func (s *EpochSnapshot) Epoch() uint64 { return s.epoch }

// DB returns the snapshot's frozen database.
func (s *EpochSnapshot) DB() *db.Database { return s.d }

// Fingerprint returns the snapshot database's content fingerprint.
func (s *EpochSnapshot) Fingerprint() string { return s.fp }

// Engine returns the sharded engine's own monolithic engine. Callers
// running queries concurrently must Fork it per goroutine, as always.
func (s *EpochSnapshot) Engine() *Engine { return s.se.eng }

// Sharded returns the snapshot's sharded engine.
func (s *EpochSnapshot) Sharded() *ShardedEngine { return s.se }

// resolver is the question set both engines answer; query answers and
// explanations are evaluated over either one's solutions.
type resolver interface {
	CertainMergesCtx(ctx context.Context) ([]eqrel.Pair, error)
	PossibleMergesCtx(ctx context.Context) ([]eqrel.Pair, error)
	MaximalSolutionsCtx(ctx context.Context) ([]*eqrel.Partition, error)
	ExistenceCtx(ctx context.Context) (*eqrel.Partition, bool, error)
	witnesses(ctx context.Context, pairs []eqrel.Pair) (with, without []*eqrel.Partition, err error)
}

// CertainMergesCtx returns the snapshot's certain merges.
func (s *EpochSnapshot) CertainMergesCtx(ctx context.Context) ([]eqrel.Pair, error) {
	return s.se.CertainMergesCtx(ctx)
}

// PossibleMergesCtx returns the snapshot's possible merges.
func (s *EpochSnapshot) PossibleMergesCtx(ctx context.Context) ([]eqrel.Pair, error) {
	return s.se.PossibleMergesCtx(ctx)
}

// MaximalSolutionsCtx returns the snapshot's maximal solutions.
func (s *EpochSnapshot) MaximalSolutionsCtx(ctx context.Context) ([]*eqrel.Partition, error) {
	return s.se.MaximalSolutionsCtx(ctx)
}

// ExistenceCtx reports whether the snapshot's instance has a solution
// (see ShardedEngine.ExistenceCtx for the witness).
func (s *EpochSnapshot) ExistenceCtx(ctx context.Context) (*eqrel.Partition, bool, error) {
	return s.se.ExistenceCtx(ctx)
}

// CertainAnswersCtx returns the certain answers to q over the snapshot's
// maximal solutions.
func (s *EpochSnapshot) CertainAnswersCtx(ctx context.Context, q *cq.CQ) ([][]db.Const, error) {
	return s.se.eng.Fork().answers(ctx, s.se, q, true)
}

// PossibleAnswersCtx returns the possible answers to q over the
// snapshot's maximal solutions.
func (s *EpochSnapshot) PossibleAnswersCtx(ctx context.Context, q *cq.CQ) ([][]db.Const, error) {
	return s.se.eng.Fork().answers(ctx, s.se, q, false)
}

// ExplainMergesCtx explains each pair across the snapshot's maximal
// solutions. It picks each witness and counterexample shard by shard,
// so it never composes the product of the shards' maximal solutions.
func (s *EpochSnapshot) ExplainMergesCtx(ctx context.Context, pairs []eqrel.Pair) ([]*MergeExplanation, error) {
	return s.se.eng.Fork().explainMerges(ctx, s.se, pairs)
}

// MutableSession accepts batched fact mutations against a fixed
// specification and similarity registry, maintaining one resolved
// EpochSnapshot per epoch. Apply is single-writer (internally
// serialized); Snapshot may be called from any goroutine.
type MutableSession struct {
	spec  *rules.Spec
	sims  *sim.Registry
	opts  Options
	cache *ShardSolveCache // shared by every epoch's ShardedEngine

	mu  sync.Mutex // serializes Apply
	cur atomic.Pointer[EpochSnapshot]
}

// NewMutable builds a mutable session over the initial database,
// numbered epoch (0 for a fresh instance). Every epoch is resolved by a
// ShardedEngine, and per-shard solves are shared across epochs through
// one ShardSolveCache of DefaultShardCacheSize entries. The database is
// frozen; all later epochs are copy-on-write overlays.
//
// Recovery passes a nonzero epoch: a database rebuilt by replaying a
// write-ahead log through epoch N resumes its lineage at N, so the next
// Apply yields N+1 and epoch numbers stay aligned with the log.
func NewMutable(d *db.Database, spec *rules.Spec, sims *sim.Registry, opts Options, epoch uint64) (*MutableSession, error) {
	d.Freeze()
	m := &MutableSession{spec: spec, sims: sims, opts: opts, cache: NewShardSolveCache(DefaultShardCacheSize)}
	snap, err := m.newSnapshot(epoch, d)
	if err != nil {
		return nil, err
	}
	m.cur.Store(snap)
	return m, nil
}

// NewMutableSharded is NewMutable at epoch 0.
//
// Deprecated: every session resolves sharded; use NewMutable. sopts is
// ignored.
func NewMutableSharded(d *db.Database, spec *rules.Spec, sims *sim.Registry, opts Options, sopts ShardOptions) (*MutableSession, error) {
	return NewMutable(d, spec, sims, opts, 0)
}

// Snapshot returns the current epoch's snapshot. The caller may hold
// it across any number of subsequent Apply calls; it keeps answering
// against its own epoch.
func (m *MutableSession) Snapshot() *EpochSnapshot { return m.cur.Load() }

// Apply atomically applies one batch, producing the next epoch. On a
// validation error the batch is rejected whole and the current epoch
// is unchanged. The returned snapshot is the new current snapshot; its
// engines are built but not yet resolved — the first result call (or a
// background warmer) pays the resolve.
func (m *MutableSession) Apply(b Batch) (ApplyResult, *EpochSnapshot, error) {
	return m.ApplyDurable(b, nil)
}

// ApplyDurable is Apply with a precommit hook: after the next epoch is
// fully built but before it is published, precommit is called with the
// would-be result. If it returns an error the staged epoch is discarded
// — the session stays at the previous epoch and the error is returned.
// A write-ahead server passes the log append (+fsync) as precommit, so
// a batch is never observable by readers unless its record is durable.
//
// The hook runs under the writer lock; it must not call back into the
// session. Similarity-memo invalidation for retracted names happens
// before the hook, but that is only dropped memoization (verdicts are
// pure functions of the names), never visible state.
func (m *MutableSession) ApplyDurable(b Batch, precommit func(ApplyResult) error) (ApplyResult, *EpochSnapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prev := m.cur.Load()
	nd, ins, ret, err := db.Apply(prev.d, b.Insert, b.Retract)
	if err != nil {
		return ApplyResult{}, nil, err
	}
	if ret > 0 {
		// Hygiene: drop memoized similarity verdicts naming retracted
		// constants. Stale entries are never wrong (verdicts are pure
		// functions of the names), so over-retained names only cost
		// memory and over-dropped ones only cost recomputation.
		var names []string
		for _, f := range b.Retract {
			names = append(names, f.Args...)
		}
		m.sims.Invalidate(names...)
	}
	snap, err := m.newSnapshot(prev.epoch+1, nd)
	if err != nil {
		return ApplyResult{}, nil, err
	}
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
	res.DirtyShards = prev.se.TouchedShards(consts)
	if precommit != nil {
		if err := precommit(res); err != nil {
			return ApplyResult{}, nil, err
		}
	}
	m.cur.Store(snap)
	return res, snap, nil
}

// newSnapshot builds one epoch's ShardedEngine over a fork of the
// session's similarity registry. Epochs may resolve concurrently, and
// each root engine writes its registry's unsynchronized memo tier;
// forks still share the memoized verdicts.
func (m *MutableSession) newSnapshot(epoch uint64, d *db.Database) (*EpochSnapshot, error) {
	se, err := NewSharded(d, m.spec, m.sims.Fork(), m.opts, ShardOptions{SolveCache: m.cache})
	if err != nil {
		return nil, err
	}
	return &EpochSnapshot{epoch: epoch, d: d, fp: d.Fingerprint(), se: se}, nil
}
