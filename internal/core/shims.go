package core

// shims.go holds the names only the benchmark module (bench/) still
// compiles against. Each is an alias or a thin wrapper of the one
// resolution type, EpochSnapshot; nothing else in this module uses
// them. ROADMAP item 1, the benchmark-only change that may edit bench/,
// switches its callers and deletes this file.

import (
	"repro/internal/db"
	"repro/internal/rules"
	"repro/internal/sim"
)

// ShardedEngine is the former name of EpochSnapshot.
//
// Deprecated: use EpochSnapshot.
type ShardedEngine = EpochSnapshot

// ShardOptions is accepted and ignored by NewSharded.
//
// Deprecated: resolution has no options; use NewSnapshot.
type ShardOptions struct{}

// NewSharded is NewSnapshot at epoch 0, except that it leaves d
// unfrozen. The ShardOptions value is ignored.
//
// Deprecated: use NewSnapshot.
func NewSharded(d *db.Database, spec *rules.Spec, sims *sim.Registry, opts Options, _ ShardOptions) (*EpochSnapshot, error) {
	return newSnapshot(d, spec, sims, opts, 0)
}

// NewMutableSharded is NewMutable at epoch 0. The ShardOptions value is
// ignored.
//
// Deprecated: use NewMutable.
func NewMutableSharded(d *db.Database, spec *rules.Spec, sims *sim.Registry, opts Options, _ ShardOptions) (*MutableSession, error) {
	return NewMutable(d, spec, sims, opts, 0)
}

// Sharded returns s itself.
//
// Deprecated: call s's methods directly.
func (s *EpochSnapshot) Sharded() *EpochSnapshot { return s }
