// Package lace is the public facade of this repository: a complete Go
// implementation of LACE, the Logical Approach to Collective Entity
// resolution of Bienvenu, Cima and Gutiérrez-Basulto (PODS 2022).
//
// LACE specifications combine hard rules (q(x,y) ⇒ EQ(x,y), merges that
// must happen), soft rules (q(x,y) ⤳ EQ(x,y), merges that may happen)
// and denial constraints over a relational database. The semantics is
// dynamic and global: rule bodies are evaluated on the database induced
// by the merges derived so far, so merges trigger further merges across
// entity types, while every merge remains justifiable by a derivation.
//
// The facade re-exports the building blocks:
//
//   - databases and schemas (internal/db), equivalence relations
//     (internal/eqrel), similarity predicates (internal/sim)
//   - conjunctive queries (internal/cq) and specifications with the
//     textual rule language (internal/rules)
//   - the native semantics (internal/core): one resolution handle,
//     the EpochSnapshot from NewSnapshot, answers existence, maximal
//     solutions, and certain and possible merges and answers; its
//     Engine lists the solution lattice and gives justifications,
//     scores and greedy solutions
//   - the answer set programming pipeline (internal/asp +
//     internal/encode) implementing Section 5 of the paper
//
// # Quickstart
//
//	schema := lace.NewSchema()
//	schema.MustAdd("Person", "id", "email")
//	d := lace.NewDatabase(schema, nil)
//	d.MustInsert("Person", "p1", "ann@x.org")
//	d.MustInsert("Person", "p2", "ann@x.orq")
//	sims := lace.DefaultSims()
//	spec, _ := lace.ParseSpec(
//	    `soft Person(x,e), Person(y,e2), lev08(e,e2) ~> EQ(x,y).`,
//	    schema, d.Interner(), sims)
//	snap, _ := lace.NewSnapshot(d, spec, sims, lace.Options{})
//	merges, _ := snap.CertainMergesCtx(context.Background())
//
// See the examples directory for complete programs, including the
// paper's Figure 1 running example.
package lace

import (
	"context"
	"fmt"
	"os"
	"strings"

	"repro/internal/asp"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/encode"
	"repro/internal/eqrel"
	"repro/internal/limits"
	"repro/internal/local"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/sim"
)

// Core data types, re-exported for API stability.
type (
	// Schema is a finite set of relation symbols with named attributes.
	Schema = db.Schema
	// Database is an in-memory relational instance over a Schema.
	Database = db.Database
	// Interner maps constant names to dense ids.
	Interner = db.Interner
	// Const is an interned constant id.
	Const = db.Const
	// Fact is a ground relational atom.
	Fact = db.Fact

	// Partition is an equivalence relation over constants — LACE's
	// solution object.
	Partition = eqrel.Partition
	// Pair is an unordered pair of constants (a merge).
	Pair = eqrel.Pair

	// SimRegistry holds the similarity predicates available to rules.
	SimRegistry = sim.Registry
	// SimPredicate is a reflexive, symmetric predicate on strings.
	// Symmetry is required, not only assumed by the similarity memo:
	// the closure enumerates each merge of a symmetric rule body in one
	// orientation only, so an asymmetric predicate would lose merges.
	SimPredicate = sim.Predicate

	// CQ is a conjunctive query.
	CQ = cq.CQ
	// Atom is a relational, similarity, or inequality atom.
	Atom = cq.Atom
	// Term is a variable or constant in an atom.
	Term = cq.Term
	// Spec is an ER specification ⟨Γ, Δ⟩.
	Spec = rules.Spec
	// Rule is a hard or soft rule.
	Rule = rules.Rule
	// Denial is a denial constraint.
	Denial = rules.Denial

	// Engine is the monolithic evaluator behind a snapshot
	// (EpochSnapshot.Engine): it lists the solution lattice and gives
	// justifications, scores and greedy solutions.
	Engine = core.Engine
	// Options tunes the search budget (MaxStates), the worker count
	// (Parallelism) and instrumentation (Recorder). Set Parallelism > 1
	// to fan the lattice walk of ExistenceCtx, MaximalSolutionsCtx and
	// Certain/PossibleMergesCtx out over that many workers
	// (0 = GOMAXPROCS); results are identical to the one-worker walk.
	// The induced-database cache has a fixed bound
	// (core.DefaultCacheSize entries per engine, split between
	// workers). Every search method takes a context, which cancels it
	// early.
	Options = core.Options
	// Justification is a Definition-4 derivation of a merge.
	Justification = core.Justification
	// JustStep is one step of a justification.
	JustStep = core.JustStep

	// ASPProgram is a normal logic program (Section 5 encoding target).
	ASPProgram = asp.Program

	// Recorder receives instrumentation events (counters, gauges, phase
	// durations, spans). Pass a *StatsRegistry in Options.Recorder to
	// collect them; the default is a zero-cost no-op.
	Recorder = obs.Recorder
	// StatsRegistry is the live Recorder implementation: thread-safe
	// counters plus an optional JSONL span trace (TraceTo).
	StatsRegistry = obs.Registry
	// Stats is an immutable snapshot of recorded metrics.
	Stats = obs.Snapshot
	// DurationStats aggregates the observations of one phase.
	DurationStats = obs.DurationStats

	// MergeExplanation explains a pair's status across all maximal
	// solutions (Section 7 "Explanation facilities" extension).
	MergeExplanation = core.MergeExplanation
	// Scored pairs a maximal solution with its evidence score
	// (Section 7 "Quantitative extensions").
	Scored = core.Scored

	// LocalRule is a matching-dependency-style rule deriving local
	// merges of value occurrences (Section 7 "Local merges" extension).
	LocalRule = local.Rule
	// LocalResolver maintains the equivalence relation over cells.
	LocalResolver = local.Resolver
	// LocalTarget designates the cell a local rule merges.
	LocalTarget = local.Target
	// Occurrence identifies a database cell (relation, row, column).
	Occurrence = local.Occurrence
	// LocalResult is the joint local+global resolution outcome.
	LocalResult = local.Result
)

// MergeStatus values re-exported for explanations.
const (
	MergeCertain      = core.Certain
	MergePossibleOnly = core.PossibleOnly
	MergeImpossible   = core.Impossible
)

// Rule kinds re-exported for programmatic rule construction.
const (
	RuleHard    = rules.Hard
	RuleSoft    = rules.Soft
	RuleNegSoft = rules.NegSoft
)

// Atom and term constructors for building rule bodies programmatically
// (the spec DSL is usually more convenient; these serve LocalRules and
// generated specifications).
var (
	// RelAtom builds a relational atom R(args...).
	RelAtom = cq.Rel
	// SimAtom builds a similarity atom p(a, b).
	SimAtom = cq.Sim
	// NeqAtom builds an inequality atom a != b.
	NeqAtom = cq.Neq
	// VarTerm builds a variable term.
	VarTerm = cq.Var
	// ConstTerm builds a constant term from an interned id.
	ConstTerm = cq.C
)

// NewSimRegistry returns a registry containing exactly the given
// predicates (contrast DefaultSims, which pre-loads the standard
// threshold metrics).
func NewSimRegistry(preds ...SimPredicate) *SimRegistry {
	return sim.NewRegistry(preds...)
}

// ResolveWithLocalMerges runs the combined local/global pipeline of the
// Section 7 "Local merges" extension: the local chase and greedy global
// resolution alternate until a joint fixpoint.
func ResolveWithLocalMerges(d *Database, localRules []*LocalRule, spec *Spec, sims *SimRegistry) (*LocalResult, error) {
	return local.Resolve(d, localRules, spec, sims)
}

// NewSchema returns an empty schema.
func NewSchema() *Schema { return db.NewSchema() }

// NewDatabase returns an empty database over schema; a nil interner
// allocates a fresh one.
func NewDatabase(schema *Schema, interner *Interner) *Database {
	return db.New(schema, interner)
}

// ParseDatabase parses a fact file (see internal/db.ParseDatabase for
// the format).
func ParseDatabase(src string, schema *Schema, interner *Interner) (*Database, error) {
	return db.ParseDatabase(src, schema, interner)
}

// ParseSpec parses the textual specification language (see
// internal/rules.ParseSpec for the grammar).
func ParseSpec(src string, schema *Schema, interner *Interner, sims *SimRegistry) (*Spec, error) {
	return rules.ParseSpec(src, schema, interner, sims)
}

// ParseQuery parses a conjunctive query "(x, y) : Body" (the head is
// optional for Boolean queries).
func ParseQuery(src string, schema *Schema, interner *Interner, sims *SimRegistry) (*CQ, error) {
	return rules.ParseQuery(src, schema, interner, sims)
}

// DefaultSims returns the standard similarity registry (normalized
// Levenshtein, Jaro-Winkler, trigram Jaccard threshold predicates).
func DefaultSims() *SimRegistry { return sim.Default() }

// NewSimTable returns an explicit-extension similarity predicate, the
// form used by Figure 1 of the paper.
func NewSimTable(name string) *sim.Table { return sim.NewTable(name) }

// SimThreshold builds a threshold predicate over a metric in [0,1]. The
// metric must be symmetric: each unordered pair is scored once.
func SimThreshold(name string, metric sim.Metric, theta float64) SimPredicate {
	return sim.Threshold(name, metric, theta)
}

// LoadFiles reads an instance from the file formats the command-line
// tools share: a fact file, a specification file and, when simTablePath
// is non-empty, a tab-separated extension (value<TAB>value per line;
// blank lines and # comments skipped) registered as the predicate
// approx next to the DefaultSims built-ins.
func LoadFiles(dataPath, specPath, simTablePath string) (*Database, *Spec, *SimRegistry, error) {
	data, err := os.ReadFile(dataPath)
	if err != nil {
		return nil, nil, nil, err
	}
	d, err := db.ParseDatabase(string(data), nil, nil)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", dataPath, err)
	}
	sims := sim.Default()
	if simTablePath != "" {
		tbl := sim.NewTable("approx")
		raw, err := os.ReadFile(simTablePath)
		if err != nil {
			return nil, nil, nil, err
		}
		for ln, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			parts := strings.Split(line, "\t")
			if len(parts) != 2 {
				return nil, nil, nil, fmt.Errorf("%s:%d: expected value<TAB>value", simTablePath, ln+1)
			}
			tbl.Add(parts[0], parts[1])
		}
		sims.Register(tbl)
	}
	specSrc, err := os.ReadFile(specPath)
	if err != nil {
		return nil, nil, nil, err
	}
	spec, err := rules.ParseSpec(string(specSrc), d.Schema(), d.Interner(), sims)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", specPath, err)
	}
	return d, spec, sims, nil
}

// Streaming types, re-exported for the mutable-session API.
type (
	// MutableSession accepts batched fact mutations against a fixed
	// specification, maintaining one resolved snapshot per epoch.
	// Readers keep the epoch they started on while writers advance.
	MutableSession = core.MutableSession
	// Batch is one atomic mutation: retractions first, then insertions.
	Batch = core.Batch
	// ApplyResult summarizes one applied batch.
	ApplyResult = core.ApplyResult
	// EpochSnapshot is the one resolution handle: existence, maximal
	// solutions, certain and possible merges and answers, and merge
	// explanations. Build one with NewSnapshot, or take a mutable
	// session's.
	EpochSnapshot = core.EpochSnapshot
	// FactSpec names one fact by relation and argument constant names.
	FactSpec = db.FactSpec
)

// NewSnapshot validates the specification and returns the resolution
// handle of (d, spec, sims). It freezes d, so parse queries naming
// constants d lacks against a Clone of its interner. The snapshot
// resolves once, on its first result call, sharded:
// the lattice top answers a consistent instance, and an inconsistent one
// is split into coupled components solved independently, with results
// identical to a whole-instance search. The core Options apply per
// component (Parallelism bounds concurrent component solves).
func NewSnapshot(d *Database, spec *Spec, sims *SimRegistry, opts Options) (*EpochSnapshot, error) {
	return core.NewSnapshot(d, spec, sims, opts, 0)
}

// NewMutableSession builds a mutable session over the initial database,
// numbered epoch (0 for a fresh instance; a recovered lineage resumes
// at its last logged epoch). Every epoch is an EpochSnapshot, resolved
// like NewSnapshot's.
func NewMutableSession(d *Database, spec *Spec, sims *SimRegistry, opts Options, epoch uint64) (*MutableSession, error) {
	return core.NewMutable(d, spec, sims, opts, epoch)
}

// ApplyFacts derives a new database from parent by one atomic batch:
// retractions first, then insertions. The parent is frozen and shares
// every untouched relation with the result.
func ApplyFacts(parent *Database, insert, retract []FactSpec) (nd *Database, inserted, retracted int, err error) {
	return db.Apply(parent, insert, retract)
}

// EncodeASP returns the Π_Sol logic program of Section 5.2 for
// (D, Σ), renderable in clingo-compatible syntax via its String method.
func EncodeASP(d *Database, spec *Spec, sims *SimRegistry) (*ASPProgram, error) {
	return encode.New(d, spec, sims).Program()
}

// ASPSolver grounds Π_Sol and exposes stable-model-based solving
// (Theorem 10): Solutions, MaximalSolutions, Existence.
type ASPSolver = encode.Solver

// NewASPSolver builds and grounds the encoding of (D, Σ). Grounding and
// the ASPSolver's solving methods report to rec (see NewRecorder) and
// stop early with a typed error matching ErrBudget or ErrCanceled once
// the budget trips (see NewBudget). A nil budget is unlimited and a nil
// recorder is a no-op.
func NewASPSolver(d *Database, spec *Spec, sims *SimRegistry, b *Budget, rec Recorder) (*ASPSolver, error) {
	return encode.NewSolver(encode.New(d, spec, sims), b, rec)
}

// Resource budgets for the ASP pipeline and shared error sentinels.
type (
	// Limits bounds one ASP pipeline run (ground rules, CNF clauses,
	// SAT decisions); zero fields are unlimited.
	Limits = limits.Limits
	// Budget tracks consumption against Limits under a context. Build
	// one with NewBudget and pass it to NewASPSolver; nil is unlimited.
	Budget = limits.Budget
)

// Shared error sentinels, matched via errors.Is. ErrBudget covers both
// the native search (Options.MaxStates) and the ASP pipeline's resource
// limits; ErrCanceled covers context cancellation and expired deadlines
// in either pipeline, and unwraps to the underlying context error.
var (
	ErrBudget   = limits.ErrBudget
	ErrCanceled = limits.ErrCanceled
)

// NewBudget returns a budget enforcing lim under ctx: cancel ctx or
// give it a deadline to bound wall-clock time. A nil ctx means no
// cancellation.
func NewBudget(ctx context.Context, lim Limits) *Budget {
	return limits.NewBudget(ctx, lim)
}

// NewRecorder returns a live statistics registry. Use it as
// Options.Recorder (or with NewASPSolver), then read the collected
// metrics with its Snapshot method — or with Engine.Stats /
// ASPSolver.Stats, which snapshot the attached recorder.
func NewRecorder() *StatsRegistry { return obs.NewRegistry() }
