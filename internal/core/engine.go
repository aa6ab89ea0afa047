// Package core implements the LACE semantics (Sections 3 and 4 of the
// paper): solutions and maximal solutions of an ER specification over a
// database, the decision problems Rec, MaxRec, Existence, CertMerge,
// PossMerge, CertAnswer and PossAnswer, Definition-4 justifications, and
// the polynomial-time algorithms for the restricted fragments of
// Theorems 8 and 9.
//
// The solver is split into two layers. A Session is the immutable
// half: database, validated specification, similarity registry and
// one prepared query plan per rule body and denial constraint (each
// plan bound to its similarity predicates when compiled), built once
// and safe for any number of goroutines; the registry's predicates
// memoize their verdicts in one concurrency-safe memo that every
// goroutine shares. A Context is the mutable half: an
// induced-database LRU cache and a recorder, owned by one goroutine
// at a time. The Engine the public API hands out is a root Context
// over its Session; parallel searches spawn one extra Context per
// worker. Fixpoint closures are semi-naive: after the first round
// only rule matches seeded from constants whose representative
// changed are re-derived, and successive induced databases are
// computed incrementally from their parent.
package core

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/limits"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/sim"
)

// ErrBudget is returned when a search exceeds Options.MaxStates. Results
// produced up to that point are incomplete. It is the shared
// limits.ErrBudget sentinel, so one errors.Is check covers budget stops
// from both the native search and the ASP pipeline.
var ErrBudget = limits.ErrBudget

// Options tunes the solution search.
type Options struct {
	// MaxStates bounds the number of distinct candidate states explored
	// by a single search; 0 means DefaultMaxStates. The decision
	// problems are NP- or Π^p_2-hard (Table 1), so a budget guards
	// against pathological instances. A maximal-solution question whose
	// lattice top is consistent is answered without a search, so the
	// budget does not apply there.
	MaxStates int
	// Parallelism sets the number of workers of the lattice walk behind
	// the solution-space searches (MaximalSolutions, Existence, merge
	// sets, the general IsMaximalSolution probe) and of the sharded
	// engine's shard solves. 0 means runtime.GOMAXPROCS(0). One worker
	// walks depth-first on the caller's goroutine and Context, in the
	// visit order SolutionsCtx documents; more fan the walk out over a
	// work queue. Set outputs are canonically ordered, so every worker
	// count returns identical results.
	Parallelism int
	// Recorder receives the engine's instrumentation events (search
	// states, cache behaviour, query evaluations, justifications). Nil
	// means the zero-cost no-op recorder.
	Recorder obs.Recorder
}

// DefaultMaxStates is the default search budget.
const DefaultMaxStates = 1 << 22

// DefaultCacheSize bounds an engine's induced-database cache in
// entries. When full, the least recently used entry is evicted. The
// workers of a parallel walk split the bound between them.
const DefaultCacheSize = 4096

// Context is the per-worker, mutable half of the solver: an LRU cache
// of induced databases D_E and a recorder (a buffering obs.Local for
// workers). All shared state, the similarity registry included, is
// reached through sess. A Context must be used by one goroutine at a
// time.
type Context struct {
	sess  *Session
	cache *lru.Cache[*db.Database] // partition key -> induced DB
	rec   obs.Recorder
}

// Engine evaluates a LACE specification over a fixed database. It is
// the root evaluation Context over an immutable Session; the Context's
// methods (closure, consistency, active pairs, induced databases) are
// promoted onto it.
type Engine struct {
	*Context
}

// New builds an engine after validating the specification against the
// database schema and similarity registry. All rule and denial plans
// are compiled here, once per session.
func New(d *db.Database, spec *rules.Spec, sims *sim.Registry, opts Options) (*Engine, error) {
	sess, err := newSession(d, spec, sims, opts)
	if err != nil {
		return nil, err
	}
	return &Engine{Context: sess.newContext(DefaultCacheSize, sess.rec)}, nil
}

// Fork returns an engine that shares this engine's immutable Session
// — database, validated specification, normalized options and
// precompiled query plans, similarity registry and its memo — but
// owns fresh mutable evaluation state: its own induced-database LRU
// cache (DefaultCacheSize entries) and recorder. The forked engine
// may be used from a different goroutine than the receiver; each
// engine (original or fork) must still be used by one goroutine at a
// time. Forking freezes the shared base database, so no further
// inserts are possible on any engine over this session. This is the
// hook a long-running server uses to serve concurrent requests from
// one prepared session.
func (e *Engine) Fork() *Engine {
	e.sess.freezeShared()
	return &Engine{Context: e.sess.newContext(DefaultCacheSize, e.sess.rec)}
}

// DB returns the engine's database.
func (e *Engine) DB() *db.Database { return e.sess.d }

// Spec returns the engine's specification.
func (e *Engine) Spec() *rules.Spec { return e.sess.spec }

// Sims returns the engine's similarity registry.
func (e *Engine) Sims() *sim.Registry { return e.sess.sims }

// Recorder returns the engine's instrumentation recorder (never nil).
func (e *Engine) Recorder() obs.Recorder { return e.rec }

// Stats returns a snapshot of the metrics recorded so far. Engines
// built without Options.Recorder use the no-op recorder and return an
// empty snapshot; pass an *obs.Registry to collect live statistics.
func (e *Engine) Stats() obs.Snapshot { return e.rec.Snapshot() }

// Identity returns the trivial equivalence relation EqRel(∅, D) sized to
// the engine's constant domain.
func (c *Context) Identity() *eqrel.Partition { return eqrel.New(c.sess.dom) }

// FromPairs returns EqRel(S, D) for the given pair set.
func (c *Context) FromPairs(pairs []eqrel.Pair) *eqrel.Partition {
	return eqrel.NewFromPairs(c.sess.dom, pairs)
}

// Induced returns the induced database D_E, computed once per distinct
// partition and held in the context's LRU cache.
func (c *Context) Induced(E *eqrel.Partition) *db.Database {
	if E.IsIdentity() {
		return c.sess.d
	}
	return c.inducedKey(E, E.Key())
}

// inducedKey is Induced for a non-identity partition whose canonical
// key the caller already holds.
func (c *Context) inducedKey(E *eqrel.Partition, key string) *db.Database {
	if ind, ok := c.cache.Get(key); ok {
		c.rec.Inc(obs.CoreCacheHits, 1)
		return ind
	}
	c.rec.Inc(obs.CoreCacheMisses, 1)
	ind := c.sess.d.Map(E.Rep)
	c.storeKey(key, ind)
	return ind
}

func (c *Context) storeKey(key string, ind *db.Database) {
	if c.cache.Put(key, ind) {
		c.rec.Inc(obs.CoreCacheEvictions, 1)
	}
}

// deriveInduced computes the induced database of E from the induced
// database of a coarser predecessor, remapping only tuples that touch
// the dirty constants (the representatives merged since parent was
// valid).
func (c *Context) deriveInduced(parent *db.Database, E *eqrel.Partition, dirty []db.Const) *db.Database {
	c.rec.Inc(obs.DBInducedIncremental, 1)
	return db.MapFrom(parent, dirty, E.Rep)
}

// state is a node of the candidate lattice: a hard-closed partition
// together with its canonical key and its induced database. The key is
// computed once per state and travels with it, so the visited set, the
// induced-database cache and the closure never rebuild it.
type state struct {
	E   *eqrel.Partition
	key string
	ind *db.Database
}

// stateOf wraps a hard-closed partition E as a search state.
func (c *Context) stateOf(E *eqrel.Partition) state {
	key := E.Key()
	if E.IsIdentity() {
		return state{E: E, key: key, ind: c.sess.d}
	}
	return state{E: E, key: key, ind: c.inducedKey(E, key)}
}

// expand returns the child of s that merges the classes of pr and then
// closes under the hard rules; the closure stops between rounds once
// ctx is done. The child's induced database is derived
// incrementally from s's — so only the root state ever pays a full
// db.Map — and cached under the child's key before and after the
// closure.
func (c *Context) expand(ctx context.Context, s state, pr eqrel.Pair) (state, error) {
	E := s.E.Clone()
	u, v := s.E.Rep(pr.A), s.E.Rep(pr.B)
	E.Add(pr)
	key := E.Key()
	ind, ok := c.cache.Get(key)
	if ok {
		c.rec.Inc(obs.CoreCacheHits, 1)
	} else {
		c.rec.Inc(obs.CoreCacheMisses, 1)
		ind = c.deriveInduced(s.ind, E, []db.Const{u, v})
		c.storeKey(key, ind)
	}
	ind, merged, err := c.closeFrom(ctx, E, ind, c.sess.hardRules, nil, nil)
	if err != nil {
		return state{}, err
	}
	if merged {
		key = E.Key()
		c.storeKey(key, ind)
	}
	return state{E: E, key: key, ind: ind}, nil
}

// repFor returns the constant-substitution function evaluation uses for
// state E: constants interned when the engine was built are replaced by
// their class representative, so a body constant is interpreted up to
// the merges of E (matching the q+ semantics of the ASP encoding in
// Section 5.2). Constants interned later (e.g. fresh query constants)
// are left unchanged — they cannot participate in merges. The identity
// partition needs no substitution and yields nil.
func (c *Context) repFor(E *eqrel.Partition) func(db.Const) db.Const {
	if E.IsIdentity() {
		return nil
	}
	dom := db.Const(c.sess.dom)
	return func(cst db.Const) db.Const {
		if cst < dom {
			return E.Rep(cst)
		}
		return cst
	}
}

// plan returns the plan buildSession compiled for key, a merge rule or
// denial of the specification, counted as a plan-cache hit.
func (c *Context) plan(key any) *cq.Plan {
	c.rec.Inc(obs.CorePlanCacheHits, 1)
	return c.sess.plans[key]
}

// queryPlan returns the plan of an ad-hoc query, prepared on first use
// and cached in a concurrent map shared by all contexts. Plans contain
// no database or partition state (constants are remapped at run time
// via RunSpec.Rep), so one plan serves every search state and worker.
func (c *Context) queryPlan(q *cq.CQ) (*cq.Plan, error) {
	if v, ok := c.sess.dynPlans.Load(q); ok {
		c.rec.Inc(obs.CorePlanCacheHits, 1)
		return v.(*cq.Plan), nil
	}
	c.rec.Inc(obs.CorePlanCacheMisses, 1)
	p, err := cq.Prepare(q.Atoms, q.Head, c.sess.d.Schema(), c.sess.sims)
	if err != nil {
		return nil, err
	}
	if v, loaded := c.sess.dynPlans.LoadOrStore(q, p); loaded {
		p = v.(*cq.Plan)
	}
	return p, nil
}

// Active is an active pair (Definition 2): a pair of distinct class
// representatives derivable by some rule on the induced database.
type Active struct {
	Pair eqrel.Pair
	// Hard reports whether some hard rule derives the pair (such pairs
	// must be merged in any solution extending the current state).
	Hard bool
	// Rules lists the names of the rules deriving the pair.
	Rules []string
}

// ActivePairs returns the pairs active in (D, E) w.r.t. the
// specification's rules, deduplicated, sorted, and annotated with the
// deriving rules. Pairs already in E are excluded.
func (c *Context) ActivePairs(E *eqrel.Partition) ([]Active, error) {
	return c.activePairs(E, c.Induced(E)), nil
}

// activePairs is ActivePairs over ind, the induced database of E.
func (c *Context) activePairs(E *eqrel.Partition, ind *db.Database) []Active {
	rep := c.repFor(E)
	var out []Active
	at := make(map[eqrel.Pair]int) // pair -> index in out
	var r *rules.Rule              // the rule being evaluated
	note := func(ans []db.Const) bool {
		u, v := ans[0], ans[1]
		if u == v || E.Same(u, v) {
			return true
		}
		p := eqrel.MakePair(u, v)
		i, ok := at[p]
		if !ok {
			i = len(out)
			at[p] = i
			out = append(out, Active{Pair: p})
		}
		a := &out[i]
		if r.Kind == rules.Hard {
			a.Hard = true
		}
		if len(a.Rules) == 0 || a.Rules[len(a.Rules)-1] != r.Name {
			a.Rules = append(a.Rules, r.Name)
		}
		return true
	}
	for _, r = range c.sess.mergeRules {
		// note drops reflexive answers and canonicalises the pair, so the
		// run may prune mirror matches.
		c.plan(r).Run(ind, cq.RunSpec{Rec: c.rec, Rep: rep, Unordered: true}, note)
	}
	slices.SortFunc(out, func(a, b Active) int {
		return cmp.Or(cmp.Compare(a.Pair.A, b.Pair.A), cmp.Compare(a.Pair.B, b.Pair.B))
	})
	return out
}

// closeFixpoint extends E in place with every pair derivable by rs
// (filtered through accept when non-nil) until fixpoint. The first
// round evaluates each rule body in full on D_E; every later round is
// semi-naive: the induced database is derived incrementally from its
// predecessor and rule bodies are re-evaluated only on matches that use
// at least one tuple containing a representative merged in the previous
// round. This is complete because rule bodies are negation-free: a
// match that is new in D_{E'} must use a tuple of D_{E'} \ D_E, and
// every such tuple contains the surviving representative of a merged
// class (see DESIGN.md). accept must be symmetric, as the closure
// offers each unordered pair in one orientation only, and stable under
// growth of E (e.g. membership in a fixed target partition).
func (c *Context) closeFixpoint(E *eqrel.Partition, rs []*rules.Rule, accept func(u, v db.Const) bool) error {
	ind, merged, err := c.closeFrom(context.TODO(), E, c.Induced(E), rs, accept, nil)
	if err == nil && merged {
		c.storeKey(E.Key(), ind)
	}
	return err
}

// closeFrom is closeFixpoint starting from ind, the induced database of
// E. Its first round evaluates only the matches that use a tuple seed
// marks, and a nil seed stands for every tuple: a full first
// evaluation. A seed must be complete: every match on ind whose head
// pair E lacks uses a tuple it marks. A closure continued from a
// closed partition is seeded by the tuples changed since (see
// carryTop). It returns the induced database of the closed E and
// whether the closure merged anything; the caller decides what to
// cache. It stops between rounds once ctx is done. A rule whose plan
// has a RepFilter runs in full every round (deltaFor).
func (c *Context) closeFrom(ctx context.Context, E *eqrel.Partition, ind *db.Database, rs []*rules.Rule, accept func(u, v db.Const) bool, seed *cq.Delta) (*db.Database, bool, error) {
	if len(rs) == 0 {
		return ind, false, nil
	}
	plans := make([]*cq.Plan, len(rs))
	for i, r := range rs {
		plans[i] = c.plan(r)
	}
	merged := false
	var pending []eqrel.Pair
	collect := func(ans []db.Const) bool {
		u, v := ans[0], ans[1]
		if u != v && !E.Same(u, v) && (accept == nil || accept(u, v)) {
			pending = append(pending, eqrel.MakePair(u, v))
		}
		return true
	}
	delta := seed
	for {
		// collect reads each answer as an unordered pair of distinct
		// constants, so the runs prune mirror matches.
		rs := cq.RunSpec{Rec: c.rec, Rep: c.repFor(E), Unordered: true}
		for _, p := range plans {
			rs.Delta = deltaFor(p, delta)
			p.Run(ind, rs, collect)
		}
		if len(pending) == 0 {
			return ind, merged, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, false, limits.Wrap(err)
		}
		// Union this round's pairs; both old representatives of every
		// merge form the touched set that seeds the next delta round.
		var touched []db.Const
		for _, pr := range pending {
			ra, rb := E.Rep(pr.A), E.Rep(pr.B)
			if ra == rb {
				continue
			}
			E.Union(ra, rb)
			merged = true
			touched = append(touched, ra, rb)
		}
		pending = pending[:0]
		if len(touched) == 0 {
			return ind, merged, nil
		}
		ind = c.deriveInduced(ind, E, touched)
		c.rec.Inc(obs.CoreFixpointDeltaRounds, 1)
		delta = cq.NewDelta(ind, touched)
	}
}

// HardClose extends E in place with all hard-rule-derivable merges until
// fixpoint. Every solution containing E also contains the result, so the
// search only branches on soft choices.
func (c *Context) HardClose(E *eqrel.Partition) error {
	return c.closeFixpoint(E, c.sess.hardRules, nil)
}

// AllClose extends E in place with every derivable merge (hard and
// soft) until fixpoint; with Δ = ∅ the result is the unique maximal
// solution (Theorem 9).
func (c *Context) AllClose(E *eqrel.Partition) error {
	return c.closeFixpoint(E, c.sess.mergeRules, nil)
}

// SatisfiesHard reports (D, E) |= Γh: every hard-rule answer pair is
// already in E. It stops at the first violating pair.
func (c *Context) SatisfiesHard(E *eqrel.Partition) (bool, error) {
	ind := c.Induced(E)
	rep := c.repFor(E)
	for _, r := range c.sess.hardRules {
		violated := false
		c.plan(r).Run(ind, cq.RunSpec{Rec: c.rec, Rep: rep}, func(ans []db.Const) bool {
			violated = ans[0] != ans[1] && !E.Same(ans[0], ans[1])
			return !violated
		})
		if violated {
			return false, nil
		}
	}
	return true, nil
}

// SatisfiesDenials reports (D, E) |= Δ: no denial constraint body has a
// homomorphism into the induced database D_E.
func (c *Context) SatisfiesDenials(E *eqrel.Partition) (bool, error) {
	return c.satisfiesDenials(E, c.Induced(E)), nil
}

// satisfiesDenials is SatisfiesDenials over ind, the induced database
// of E.
func (c *Context) satisfiesDenials(E *eqrel.Partition, ind *db.Database) bool {
	return c.satisfiesDenialsDelta(E, ind, nil)
}

// satisfiesDenialsDelta is satisfiesDenials when only the matches that
// use a tuple delta marks can violate Δ (a nil delta checks every
// match): each denial runs over deltaFor(delta), in full when its plan
// has a RepFilter.
func (c *Context) satisfiesDenialsDelta(E *eqrel.Partition, ind *db.Database, delta *cq.Delta) bool {
	c.rec.Inc(obs.CoreDenialChecks, 1)
	rs := cq.RunSpec{Rec: c.rec, Rep: c.repFor(E)}
	violated := false
	stop := func([]db.Const) bool {
		violated = true
		return false
	}
	for _, dn := range c.sess.spec.Denials {
		p := c.plan(dn)
		rs.Delta = deltaFor(p, delta)
		p.Run(ind, rs, stop)
		if violated {
			return false
		}
	}
	return true
}

// deltaFor is the delta over which a plan rerun after a merge finds
// every new match: delta itself, or nil (a full run) when the plan has
// a RepFilter.
func deltaFor(p *cq.Plan, delta *cq.Delta) *cq.Delta {
	if p.RepFilter() {
		return nil
	}
	return delta
}

// ViolatedDenials returns the names of the denial constraints violated in
// (D, E), for diagnostics.
func (c *Context) ViolatedDenials(E *eqrel.Partition) ([]string, error) {
	return c.violatedDenials(E, c.Induced(E)), nil
}

// violatedDenials is ViolatedDenials over ind, the induced database of
// E.
func (c *Context) violatedDenials(E *eqrel.Partition, ind *db.Database) []string {
	rs := cq.RunSpec{Rec: c.rec, Rep: c.repFor(E)}
	var out []string
	for _, dn := range c.sess.spec.Denials {
		if c.plan(dn).Holds(ind, rs) {
			out = append(out, dn.Name)
		}
	}
	return out
}

// IsCandidate implements the candidate-solution check of Theorem 1's
// algorithm: grow a fixpoint from the identity, adding only pairs of E
// that are active at the time, and compare the result with E. The
// accept filter (membership in E) is stable under growth, so the
// semi-naive closure applies.
func (c *Context) IsCandidate(E *eqrel.Partition) (bool, error) {
	cur := c.Identity()
	if err := c.closeFixpoint(cur, c.sess.mergeRules, E.Same); err != nil {
		return false, err
	}
	return cur.Equal(E), nil
}

// IsSolution decides Rec: whether E ∈ Sol(D, Σ). Per Theorem 1 this
// runs in polynomial time: check Γh and Δ on the induced database, then
// verify E is a candidate solution.
func (c *Context) IsSolution(E *eqrel.Partition) (bool, error) {
	okHard, err := c.SatisfiesHard(E)
	if err != nil || !okHard {
		return false, err
	}
	okDen, err := c.SatisfiesDenials(E)
	if err != nil || !okDen {
		return false, err
	}
	return c.IsCandidate(E)
}
