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
// Incrementality comes from four reuses, none of which weakens the
// exactness argument of DESIGN.md §11:
//   - db.Apply shares every untouched relation with the parent epoch,
//     and the interner too unless the batch names a new constant (then
//     a clone with ids preserved), so constant ids — and everything
//     keyed by them — stay valid along the lineage;
//   - every epoch reads the session's one similarity registry, whose
//     memo persists across epochs (minus the entries forget drops, in
//     batches, for names no longer in the database), so verdicts are
//     computed once per lineage, not once per epoch;
//   - every epoch's session shares its predecessor's compiled plans
//     (newSessionFrom);
//   - each epoch's lattice top is carried from its predecessor's: the
//     epoch re-closes only the top's classes its batch can have
//     changed, continuing the closure from the rest, and re-records
//     only the classes of the stitch's coupling analysis whose matches
//     the batch can have changed (carry.go, DESIGN.md §12). Only when
//     the predecessor's top failed or clashed at a similarity position
//     (where the engine falls back to a monolithic solve), or ends a
//     chain of maxPendingTops unresolved epochs, does an epoch close
//     the identity over its whole database.

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

// EpochSnapshot is the one resolution handle, of an instance
// (NewSnapshot) or of one epoch of a MutableSession: the frozen
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
	sims *sim.Registry

	mu  sync.Mutex // serializes Apply
	cur atomic.Pointer[EpochSnapshot]
	// gone holds the retracted names the current database no longer
	// holds whose memoized similarity verdicts are still kept (see
	// forget).
	gone map[string]bool
}

// forgetBatch is how many gone names the similarity memo keeps verdicts
// for before one sweep drops them all. A sweep scans the whole memo, so
// sweeping per retraction would cost every retracting epoch a pass over
// it; batching makes that cost amortized constant and bounds what the
// memo keeps for absent names.
const forgetBatch = 64

// forget records the names a published batch retracted that d, the
// new epoch's database, no longer holds, and clears the ones it
// (re)inserted. Once forgetBatch names are gone it drops every verdict
// naming one of them from the similarity memo. Kept verdicts are never
// wrong (they are pure functions of the names), so this only bounds
// memory; a name that comes back finds its verdicts still memoized.
func (m *MutableSession) forget(b Batch, d *db.Database) {
	for _, f := range b.Insert {
		for _, n := range f.Args {
			delete(m.gone, n)
		}
	}
	for _, f := range b.Retract {
		for _, n := range f.Args {
			if !holdsName(d, n) {
				if m.gone == nil {
					m.gone = make(map[string]bool)
				}
				m.gone[n] = true
			}
		}
	}
	if len(m.gone) >= forgetBatch {
		names := make([]string, 0, len(m.gone))
		for n := range m.gone {
			names = append(names, n)
		}
		m.sims.Invalidate(names...)
		clear(m.gone)
	}
}

// holdsName reports whether some tuple of d holds the constant named n.
func holdsName(d *db.Database, n string) bool {
	c, ok := d.Interner().Lookup(n)
	if !ok {
		return false
	}
	for _, r := range d.Schema().Relations() {
		t := d.Table(r.Name)
		if t == nil {
			continue
		}
		for col := 0; col < r.Arity(); col++ {
			if len(t.Lookup(col, c)) > 0 {
				return true
			}
		}
	}
	return false
}

// NewSnapshot validates the specification and returns the resolution
// handle of (d, spec, sims), numbered epoch, resolved by a
// ShardedEngine on its first result call. The database is frozen. The
// snapshot is not an epoch of a session: nothing reads its lattice top
// after it has resolved, so its engine drops the top then.
func NewSnapshot(d *db.Database, spec *rules.Spec, sims *sim.Registry, opts Options, epoch uint64) (*EpochSnapshot, error) {
	d.Freeze()
	se, err := NewSharded(d, spec, sims, opts, ShardOptions{})
	if err != nil {
		return nil, err
	}
	return &EpochSnapshot{epoch: epoch, d: d, fp: d.Fingerprint(), se: se}, nil
}

// NewMutable builds a mutable session over the initial database,
// numbered epoch (0 for a fresh instance). Epoch 0 is NewSnapshot's,
// kept carryable so that its successor reads its top; all later epochs
// are copy-on-write overlays.
//
// Recovery passes a nonzero epoch: a database rebuilt by replaying a
// write-ahead log through epoch N resumes its lineage at N, so the next
// Apply yields N+1 and epoch numbers stay aligned with the log.
func NewMutable(d *db.Database, spec *rules.Spec, sims *sim.Registry, opts Options, epoch uint64) (*MutableSession, error) {
	snap, err := NewSnapshot(d, spec, sims, opts, epoch)
	if err != nil {
		return nil, err
	}
	snap.se.carryable = true
	m := &MutableSession{sims: sims}
	m.cur.Store(snap)
	return m, nil
}

// NewMutableSharded is NewMutable at epoch 0.
//
// Deprecated: every session resolves sharded; use NewMutable. The
// ShardOptions argument is ignored.
func NewMutableSharded(d *db.Database, spec *rules.Spec, sims *sim.Registry, opts Options, _ ShardOptions) (*MutableSession, error) {
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
// session.
func (m *MutableSession) ApplyDurable(b Batch, precommit func(ApplyResult) error) (ApplyResult, *EpochSnapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prev := m.cur.Load()
	nd, ins, ret, err := db.Apply(prev.d, b.Insert, b.Retract)
	if err != nil {
		return ApplyResult{}, nil, err
	}
	se := newShardedFrom(nd, prev.se, batchFacts(prev.d.Interner(), b.Retract), batchFacts(nd.Interner(), b.Insert))
	snap := &EpochSnapshot{epoch: prev.epoch + 1, d: nd, fp: nd.Fingerprint(), se: se}
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
	m.forget(b, nd)
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
