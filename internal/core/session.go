package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/sim"
)

// Session is the immutable, share-everything half of the solver: the
// database, the validated specification, the similarity registry, the
// normalized options and the prepared query plans, built once by New
// and read-only afterwards. Any number of goroutines may read a
// Session concurrently; all mutable evaluation state (induced-database
// cache, counter buffers) lives in per-worker Contexts. The similarity
// predicates' memos are the one shared exception: they lock.
type Session struct {
	d    *db.Database
	spec *rules.Spec
	sims *sim.Registry // shared by every context; plans bind its predicates
	dom  int           // interner size when the session was built
	opts Options       // normalized: MaxStates/Parallelism resolved
	rec  obs.Recorder

	// hardRules and mergeRules are the specification's Γh and Γ, listed
	// once so the per-state closures and active-pair queries do not
	// rebuild them.
	hardRules, mergeRules []*rules.Rule

	// plans maps every rule and denial pointer of the specification to
	// its prepared plan. The map is filled by newSession and never
	// written again, so lock-free concurrent lookups are safe.
	plans map[any]*preparedQuery
	// dynPlans caches plans for ad-hoc queries (AnswersIn / HoldsIn),
	// keyed by *cq.CQ pointer; concurrent because worker contexts share
	// it.
	dynPlans sync.Map
	// relaxedPlans caches the relaxed-join compilation of each rule
	// (relaxed.go), keyed by *rules.Rule pointer, on first use.
	relaxedPlans sync.Map
	// coupling holds the snapshots' coupling plans, compiled on
	// first use. Like plans, it is shared by every epoch of a mutable
	// session (newSessionFrom).
	coupling *couplingPlanSet

	// freezeOnce freezes the base database the first time a parallel
	// phase starts (eager column indexes, immutable tables), making it
	// safe for concurrent readers. Sequential runs never pay for this.
	freezeOnce sync.Once
	// top memoizes consistentTop's verdict once the base database is
	// frozen: the lattice top is a function of the session alone, so
	// every Fork shares one closure instead of repeating it.
	top atomic.Pointer[topVerdict]
}

// topVerdict is a memoized consistentTop result: the lattice top when
// it satisfies Δ, nil when it does not. T is never handed out or
// mutated; readers clone it.
type topVerdict struct{ T *eqrel.Partition }

// normalizeOptions resolves the zero values of Options to their
// documented defaults. Session construction and shard solves both
// normalize exactly once, so per-shard sessions inherit already-resolved
// budgets instead of re-deriving them.
func normalizeOptions(opts Options) Options {
	if opts.MaxStates <= 0 {
		opts.MaxStates = DefaultMaxStates
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	return opts
}

// newSession validates the specification, normalizes the options and
// precompiles one plan per merge rule and denial constraint. Each
// compilation is recorded as one plan-cache miss, preserving the
// counter semantics of the previous lazy compilation.
func newSession(d *db.Database, spec *rules.Spec, sims *sim.Registry, opts Options) (*Session, error) {
	if err := spec.Validate(d.Schema(), sims); err != nil {
		return nil, err
	}
	return buildSession(d, spec, sims, normalizeOptions(opts), nil)
}

// newSessionFrom builds the session of a mutable session's next epoch
// over d, sharing prev's validated specification, options and compiled
// plans. Plans hold no database state, and d keeps prev's schema and
// extends its interner with every id preserved, so they serve it as
// they are.
func newSessionFrom(d *db.Database, prev *Session) *Session {
	return &Session{
		d:          d,
		spec:       prev.spec,
		sims:       prev.sims,
		dom:        d.Interner().Size(),
		opts:       prev.opts,
		rec:        prev.rec,
		plans:      prev.plans,
		coupling:   prev.coupling,
		hardRules:  prev.hardRules,
		mergeRules: prev.mergeRules,
	}
}

// buildSession assembles a Session over an already-validated
// specification with already-normalized options. A snapshot
// builds one per shard from a projection of a validated instance, where
// re-validating the (structurally identical) rewritten spec per shard
// would be pure overhead. plans, when not nil, holds plans already
// compiled for some of the spec's rules and denials; the rest are
// compiled into it.
func buildSession(d *db.Database, spec *rules.Spec, sims *sim.Registry, opts Options, plans map[any]*preparedQuery) (*Session, error) {
	if plans == nil {
		plans = make(map[any]*preparedQuery)
	}
	s := &Session{
		d:        d,
		spec:     spec,
		sims:     sims,
		dom:      d.Interner().Size(),
		opts:     opts,
		rec:      obs.OrNop(opts.Recorder),
		plans:    plans,
		coupling: &couplingPlanSet{},

		hardRules:  spec.HardRules(),
		mergeRules: spec.MergeRules(),
	}
	for _, r := range s.mergeRules {
		if err := s.compile(r, r.Body.Atoms, r.Body.Head); err != nil {
			return nil, fmt.Errorf("core: rule %s: %w", r.Name, err)
		}
	}
	for _, dn := range spec.Denials {
		if err := s.compile(dn, dn.Atoms, nil); err != nil {
			return nil, fmt.Errorf("core: denial %s: %w", dn.Name, err)
		}
	}
	return s, nil
}

// compile prepares one plan into the immutable plan map (construction
// time only).
func (s *Session) compile(key any, atoms []cq.Atom, head []string) error {
	if _, ok := s.plans[key]; ok {
		return nil
	}
	s.rec.Inc(obs.CorePlanCacheMisses, 1)
	pq, err := prepare(atoms, head, s.d.Schema(), s.sims)
	if err != nil {
		return err
	}
	s.plans[key] = pq
	return nil
}

// planFor returns the prepared plan for the query body keyed by key (a
// *rules.Rule, *rules.Denial, or *cq.CQ pointer). Rule and denial plans
// come from the immutable precompiled map; ad-hoc query plans are
// prepared on first use and cached in a concurrent map shared by all
// contexts. Plans contain no database or partition state — constants
// are remapped at run time via RunSpec.Rep — so one plan serves every
// search state and every worker.
func (s *Session) planFor(rec obs.Recorder, key any, atoms []cq.Atom, head []string) (*preparedQuery, error) {
	if pq, ok := s.plans[key]; ok {
		rec.Inc(obs.CorePlanCacheHits, 1)
		return pq, nil
	}
	if v, ok := s.dynPlans.Load(key); ok {
		rec.Inc(obs.CorePlanCacheHits, 1)
		return v.(*preparedQuery), nil
	}
	rec.Inc(obs.CorePlanCacheMisses, 1)
	pq, err := prepare(atoms, head, s.d.Schema(), s.sims)
	if err != nil {
		return nil, err
	}
	if v, loaded := s.dynPlans.LoadOrStore(key, pq); loaded {
		pq = v.(*preparedQuery)
	}
	return pq, nil
}

// prepare compiles a query body, binding its similarity atoms to sims,
// and computes its delta-safety.
func prepare(atoms []cq.Atom, head []string, schema *db.Schema, sims *sim.Registry) (*preparedQuery, error) {
	p, err := cq.Prepare(atoms, head, schema, sims)
	if err != nil {
		return nil, err
	}
	pq := &preparedQuery{plan: p}
	for _, a := range atoms {
		if a.Kind == cq.KindRel {
			continue
		}
		for _, t := range a.Args {
			if !t.IsVar {
				pq.deltaUnsafe = true
			}
		}
	}
	return pq, nil
}

// freezeShared makes the base database safe for concurrent readers
// (eager indexes, inserts rejected). It runs once, the first time a
// parallel phase actually starts; purely sequential use never freezes.
func (s *Session) freezeShared() {
	s.freezeOnce.Do(func() { s.d.Freeze() })
}

// workers returns the resolved worker count for parallel phases.
func (s *Session) workers() int { return s.opts.Parallelism }

// newContext returns a fresh evaluation context: an induced-DB cache of
// cacheSize entries (at least 64) and rec, the session's recorder for a
// root context or a worker's buffering recorder.
func (s *Session) newContext(cacheSize int, rec obs.Recorder) *Context {
	return &Context{
		sess:  s,
		cache: lru.New[*db.Database](max(cacheSize, 64)),
		rec:   obs.OrNop(rec),
	}
}
