package core

// shard.go re-architects resolution around partitioning: instead of one
// monolithic solution-space search over the whole instance, the domain
// is split into coupled components, each component is solved as an
// independent Shard (its own projected database, rewritten spec,
// sim-registry slice and Session), and a stitching fixpoint
// re-partitions on the merges the shards discover until no cross-shard
// interaction remains.
//
// Planning asks the top T of the candidate lattice first: the closure
// of the identity under every merge rule. Every solution lies below T,
// so a consistent T is the unique maximal solution and answers the
// instance with no components, coupling analysis or shard solves; it is
// recorded as one single-choice shard per nontrivial T-class. Only an
// inconsistent T runs the stitch, seeded with G = T and the components
// at T's classes. A merge only ever comes from a match of a rule body,
// similarity atoms included, so what guarantees sharded ≡ monolithic is
// the coupling analysis: each merge rule and each denial constraint is
// evaluated on D_G with its inequality atoms dropped and every variable
// exposed in the head. Sim-safety (enforced by Spec.Validate) makes rule
// and denial matches forward-map under merging, and every solution lies
// below T = G, so every match any solution can ever exhibit is the image
// of one of these relaxed matches; the constants of each relaxed match
// that can merge at all are unioned into one component, hence no rule
// application or denial violation can ever span two shards. Inequality
// atoms are the one non-monotone ingredient, and dropping them is
// conservative; the only matches skipped are those whose dropped
// inequality binds one constant that provably never merges (a singleton
// class of T), which can never become a real match in any state. The
// shards can only rediscover merges already in G, so the stitch closes
// after one round. A component's local top is T restricted to it, so a
// component no violated denial match of D_T touches is answered by T
// too; only the others are solved. See DESIGN.md §11 for the full
// argument.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/limits"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/sim"
)

// ShardOptions tunes the partition layer of a ShardedEngine.
type ShardOptions struct {
	// SolveCache, when non-nil, memoizes per-shard solve results across
	// engines keyed by the projected instance's content. Share one cache
	// only between engines whose databases form an epoch lineage (ids
	// preserved by db.Apply) over the same spec and similarity registry —
	// MutableSession arranges exactly this.
	SolveCache *ShardSolveCache
}

// Shard is one unit of resolution: a coupled component of the constant
// space together with its projected sub-instance and the per-shard
// Session solving it.
type Shard struct {
	// Root is the component representative (minimum constant id).
	Root db.Const
	// Members are the component's constants, ascending: the only
	// constants this shard's solutions may merge.
	Members []db.Const

	// support is the sorted set of D_G-level constants reachable by a
	// relaxed match touching this component; the projected database is
	// every base tuple whose G-image stays inside it.
	support []db.Const
	// tuples are the projected base tuples per relation, in base
	// insertion order, so the local database is deterministic.
	tuples map[string][][]db.Const

	// Results in global constant ids.
	maximal  [][]eqrel.Pair
	possible []eqrel.Pair
	certain  []eqrel.Pair
	solvable bool
}

// ShardStats summarizes a finished sharded resolution.
type ShardStats struct {
	// Shards is the number of nontrivial components, solved or answered
	// by the top; Sizes their member counts, ordered by component root.
	Shards int
	Sizes  []int
	// Rounds is the number of stitch-fixpoint rounds: 0 when the
	// instance was answered by the top (a consistent lattice top, with
	// one shard per nontrivial class of it), 1 when an inconsistent top
	// seeded the stitch. Solves counts the per-shard solves performed;
	// a shard the top answers is neither solved nor looked up in the
	// solve cache.
	Rounds, Solves int
	// CacheHits / CacheMisses count shards served from (resp.
	// missed in) the cross-epoch solve cache; both stay zero when no
	// ShardOptions.SolveCache is configured.
	CacheHits, CacheMisses int
	// Monolithic reports that the engine fell back to one whole-instance
	// solve (a mergeable constant occurred at a similarity position, the
	// one case where the coupling analysis would be unsound).
	Monolithic bool
}

// couplingPlan is one rule or denial body compiled for the coupling
// analysis: inequality atoms dropped, every variable in the head.
type couplingPlan struct {
	name string
	rule bool     // a merge rule (has a head pair) vs. a denial
	x, y int      // head-pair positions in vars (rules only)
	vars []string // the plan's head: all variables, sorted
	plan *preparedQuery
	// neq lists the dropped inequality atoms as term resolvers.
	neq [][2]cq.Term
	// consts are the constant ids appearing in the kept atoms.
	consts []db.Const
}

// ShardedEngine resolves an instance from the top of its candidate
// lattice: a consistent top is the answer; an inconsistent one seeds a
// partition into coupled components and a stitch that feeds the merges
// the shards discover back until none is new. A component the top
// answers is recorded as is; the rest are each solved as a Shard over
// the parallel work queue. Results are byte-identical to the monolithic
// Engine on the same instance.
//
// The first result call resolves the whole instance once (under that
// call's context); later calls reuse the per-shard results. The result
// methods are safe for concurrent use: the resolved results are
// read-only, and an instance that falls back to a monolithic solve runs
// it on a private Fork per call.
type ShardedEngine struct {
	eng   *Engine
	sopts ShardOptions

	once sync.Once
	err  error
	done atomic.Bool // run completed without error

	shards      []*Shard // ordered by root
	rounds      int
	solves      int
	cacheHits   int
	cacheMisses int
	mono        bool // fell back to a single monolithic solve
	unsolvable  bool // Sol(D, Σ) = ∅
}

// NewSharded builds a sharded engine over (d, spec, sims). The core
// Options apply per shard (MaxStates bounds each shard's search;
// Parallelism bounds concurrent shard solves).
func NewSharded(d *db.Database, spec *rules.Spec, sims *sim.Registry, opts Options, sopts ShardOptions) (*ShardedEngine, error) {
	eng, err := New(d, spec, sims, opts)
	if err != nil {
		return nil, err
	}
	return &ShardedEngine{eng: eng, sopts: sopts}, nil
}

// Engine returns the underlying monolithic engine (the fallback target
// and the owner of the shared base session).
func (se *ShardedEngine) Engine() *Engine { return se.eng }

// Stats returns the partition summary of the resolved instance. It
// resolves first if no result method ran yet.
func (se *ShardedEngine) Stats() (ShardStats, error) {
	if err := se.resolve(context.Background()); err != nil {
		return ShardStats{}, err
	}
	st := ShardStats{
		Shards: len(se.shards), Rounds: se.rounds,
		Solves:    se.solves,
		CacheHits: se.cacheHits, CacheMisses: se.cacheMisses,
		Monolithic: se.mono,
	}
	for _, sh := range se.shards {
		st.Sizes = append(st.Sizes, len(sh.Members))
	}
	return st, nil
}

// resolve runs the full pipeline once: the top, then (when it is
// inconsistent) the stitch to fixpoint; it remembers per-shard results.
func (se *ShardedEngine) resolve(ctx context.Context) error {
	se.once.Do(func() {
		se.err = se.run(ctx)
		if se.err == nil {
			se.done.Store(true)
		}
	})
	return se.err
}

// Resolved reports whether a resolution pass has already completed
// successfully. It never triggers one — use it to ask "are the shard
// results available right now" from a goroutine that must not block.
func (se *ShardedEngine) Resolved() bool { return se.done.Load() }

// TouchedShards counts resolved shards whose support contains any of
// the given constants: after a stitch, the number of components a fact
// batch naming those constants dirties. For an instance answered by
// the top, whose shards are the nontrivial T-classes supported by their
// members only, it is the number of T-classes the constants name, a
// lower bound on the classes such a batch can change. It returns -1
// when no resolution has completed yet, or when the engine fell back to
// a monolithic solve (where per-shard accounting is meaningless).
func (se *ShardedEngine) TouchedShards(consts map[db.Const]bool) int {
	if !se.Resolved() || se.mono {
		return -1
	}
	n := 0
	for _, sh := range se.shards {
		for _, c := range sh.support {
			if consts[c] {
				n++
				break
			}
		}
	}
	return n
}

func (se *ShardedEngine) run(ctx context.Context) error {
	e := se.eng
	rec := e.rec
	sp := rec.Start(obs.SpanShardPlan)
	defer sp.End()

	// Stage 0: the top T of the candidate lattice. Every solution lies
	// below T, so a consistent T is the unique maximal solution and
	// answers the instance; an inconsistent one seeds the stitch.
	T, indT, consistent, err := e.top(ctx)
	if err != nil {
		return err
	}
	if consistent {
		se.shards = topShards(T)
	} else {
		if err := se.stitch(ctx, T, indT); err != nil {
			return err
		}
		if se.mono {
			return nil
		}
	}

	rec.Gauge(obs.CoreShardCount, int64(len(se.shards)))
	rec.Gauge(obs.CoreShardRounds, int64(se.rounds))
	largest := 0
	for _, sh := range se.shards {
		rec.Observe(obs.HistShardSize, time.Duration(int64(len(sh.Members))))
		if len(sh.Members) > largest {
			largest = len(sh.Members)
		}
	}
	rec.Gauge(obs.CoreShardLargest, int64(largest))
	topConsistent := int64(0)
	if consistent {
		topConsistent = 1
	}
	sp.AttrInt("shards", int64(len(se.shards))).AttrInt("rounds", int64(se.rounds)).
		AttrInt("top_consistent", topConsistent)
	return nil
}

// topShards records a consistent top T as the resolution: one
// single-choice shard per nontrivial T-class, whose members, support,
// only maximal choice, possible merges and certain merges are all that
// class. Composition, witnesses and TouchedShards then read it like any
// solved shard, with no round, plan or solve behind it.
func topShards(T *eqrel.Partition) []*Shard {
	classes := T.NontrivialClasses()
	shards := make([]*Shard, len(classes))
	for i, cls := range classes {
		shards[i] = &Shard{Root: cls[0], Members: cls, support: cls}
		answerByTop(shards[i], T)
	}
	return shards
}

// answerByTop records T's restriction to the shard's members as its
// only maximal choice, its possible merges and its certain merges.
// Members ascend, so the pairs come out in canonical order.
func answerByTop(sh *Shard, T *eqrel.Partition) {
	var pairs []eqrel.Pair
	for i, a := range sh.Members {
		for _, b := range sh.Members[i+1:] {
			if T.Same(a, b) {
				pairs = append(pairs, eqrel.Pair{A: a, B: b})
			}
		}
	}
	sh.maximal = [][]eqrel.Pair{pairs}
	sh.possible, sh.certain = pairs, pairs
	sh.solvable = true
}

// stitch resolves an instance whose top T violates Δ: G starts at T and
// the component partition at T's classes, every member a potential
// merge endpoint. Every solution lies below T, so the shards can only
// rediscover merges already in G and the fixpoint closes after one
// round; only components a violated denial touches are solved
// (DESIGN.md §11). indT is T's induced database.
func (se *ShardedEngine) stitch(ctx context.Context, T *eqrel.Partition, indT *db.Database) error {
	e := se.eng
	comp := T.Clone()

	plans, err := se.couplingPlans()
	if err != nil {
		return err
	}

	// hasHead marks component representatives whose component contains a
	// potential merge endpoint; only such components become shards.
	// Entries are keyed by class representative (the minimum id, which
	// never changes owner), so stale keys of absorbed classes are never
	// read back. Every member of a nontrivial T-class is an endpoint: the
	// rule branch below skips pairs already merged in G, so it would
	// never mark them.
	hasHead := make(map[db.Const]bool)
	for _, cls := range T.NontrivialClasses() {
		hasHead[cls[0]] = true
	}
	mergeable := func(c db.Const) bool { return hasHead[comp.Rep(c)] }
	markHead := func(c db.Const) { hasHead[comp.Rep(c)] = true }
	unionComp := func(a, b db.Const) bool {
		ra, rb := comp.Rep(a), comp.Rep(b)
		if ra == rb {
			return false
		}
		h := hasHead[ra] || hasHead[rb]
		comp.Union(a, b)
		if h {
			hasHead[comp.Rep(a)] = true
		}
		return true
	}

	// Stage 1: stitch fixpoint.
	G := T
	if !G.IsIdentity() {
		e.storeKey(G.Key(), indT)
	}
	for {
		se.rounds++
		if err := ctx.Err(); err != nil {
			return limits.Wrap(err)
		}

		// (a) coupling analysis on D_G until the components stop growing.
		for {
			changed := false
			se.forEachCouplingMatch(G, plans, func(cp *couplingPlan, vals []db.Const, constVals []db.Const) {
				// Skip matches whose dropped inequality binds a constant
				// that provably never merges: they can never become real.
				for _, nq := range cp.neq {
					a := termVal(nq[0], cp, vals, G)
					b := termVal(nq[1], cp, vals, G)
					if a == b && G.ClassSize(a) == 1 {
						return
					}
				}
				if cp.rule {
					u, v := vals[cp.x], vals[cp.y]
					if u == v {
						// Either already merged in G (a T-class, marked
						// before the first round) or a trivial
						// self-derivation: no new endpoint either way.
						if G.ClassSize(u) == 1 {
							return
						}
					} else {
						markHead(u)
						markHead(v)
						if unionComp(u, v) {
							changed = true
						}
					}
				}
				// Couple every mergeable constant of the match into one
				// component: no rule application or denial violation may
				// span two shards.
				var first db.Const = -1
				couple := func(c db.Const) {
					if !mergeable(c) {
						return
					}
					if first < 0 {
						first = c
						return
					}
					if unionComp(first, c) {
						changed = true
					}
				}
				for _, c := range vals {
					couple(c)
				}
				for _, c := range constVals {
					couple(c)
				}
			})
			if !changed {
				break
			}
		}

		// The coupling analysis evaluates similarity on representative
		// names, which is faithful only while no mergeable constant sits
		// at a similarity position (the value-level shadow of the
		// attribute-level sim-safety check). If the instance violates
		// that, fall back to one monolithic solve — exact, just unsharded.
		if se.simPositionsClash(mergeable) {
			se.mono = true
			se.shards = nil
			return nil
		}

		// (b) collect supports now that this round's components are
		// final.
		supports, violated := se.collectSupports(G, plans, comp, mergeable)
		shards := se.planShards(comp, hasHead, supports)

		// (c) a component no violated denial match of D_G touches has
		// G's restriction as its local top, and that top is consistent:
		// it is the component's one maximal solution. Only the other
		// components get projected tuples and are solved, in parallel
		// over the work queue; cache hits replay earlier epochs' solves
		// without searching.
		var toSolve []*Shard
		for _, sh := range shards {
			if violated[sh.Root] {
				toSolve = append(toSolve, sh)
			} else {
				answerByTop(sh, G)
			}
		}
		se.project(toSolve, supports, G)
		hits, err := se.solveShards(ctx, toSolve)
		if err != nil {
			return err
		}
		se.solves += len(toSolve) - hits

		// (d) feed discovered merges back; fixpoint when nothing new. A
		// shard's closure may derive merges whose endpoints were plain
		// spectators at planning time (a join key collapsing mid-search
		// fires a rule over constants outside Members), so every
		// discovered endpoint becomes headable and is coupled into the
		// component that derived it — the next round re-plans around it.
		changed := false
		for _, sh := range shards {
			for _, p := range sh.possible {
				if G.Add(p) {
					changed = true
				}
				markHead(p.A)
				markHead(p.B)
				unionComp(p.A, p.B)
			}
		}
		if !changed {
			se.shards = shards
			break
		}
	}

	sort.Slice(se.shards, func(i, j int) bool { return se.shards[i].Root < se.shards[j].Root })

	// Stage 2: choice-independent denial violations. A real denial match
	// on the base database none of whose constants can ever merge is
	// violated in every reachable state, so no solution exists.
	unsolvable, err := se.permanentViolation(mergeable)
	if err != nil {
		return err
	}
	if !unsolvable {
		for _, sh := range se.shards {
			if !sh.solvable {
				unsolvable = true
				break
			}
		}
	}
	se.unsolvable = unsolvable
	return nil
}

// couplingPlans compiles the relaxed form of every merge rule and
// denial: inequality atoms dropped, all variables exposed in the head.
func (se *ShardedEngine) couplingPlans() ([]*couplingPlan, error) {
	var out []*couplingPlan
	build := func(name string, atoms []cq.Atom, head []string) (*couplingPlan, error) {
		cp := &couplingPlan{name: name}
		var kept []cq.Atom
		for _, a := range atoms {
			if a.Kind == cq.KindNeq {
				cp.neq = append(cp.neq, [2]cq.Term{a.Args[0], a.Args[1]})
				continue
			}
			kept = append(kept, a)
			for _, t := range a.Args {
				if !t.IsVar {
					cp.consts = append(cp.consts, t.Const)
				}
			}
		}
		cp.vars = cq.Vars(kept)
		pq, err := prepare(kept, cp.vars, se.eng.sess.d.Schema())
		if err != nil {
			return nil, fmt.Errorf("core: coupling plan %s: %w", name, err)
		}
		cp.plan = pq
		if head != nil {
			cp.rule = true
			cp.x = indexOf(cp.vars, head[0])
			cp.y = indexOf(cp.vars, head[1])
			if cp.x < 0 || cp.y < 0 {
				return nil, fmt.Errorf("core: coupling plan %s: head variable not bound", name)
			}
		}
		return cp, nil
	}
	for _, r := range se.eng.sess.spec.MergeRules() {
		cp, err := build(r.Name, r.Body.Atoms, r.Body.Head)
		if err != nil {
			return nil, err
		}
		out = append(out, cp)
	}
	for _, dn := range se.eng.sess.spec.Denials {
		cp, err := build(dn.Name, dn.Atoms, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, cp)
	}
	return out, nil
}

func indexOf(ss []string, s string) int {
	for i, v := range ss {
		if v == s {
			return i
		}
	}
	return -1
}

// termVal resolves a dropped-inequality term against a match: variables
// through the answer row, constants through their G-representative.
func termVal(t cq.Term, cp *couplingPlan, vals []db.Const, G *eqrel.Partition) db.Const {
	if t.IsVar {
		return vals[indexOf(cp.vars, t.Name)]
	}
	return G.Rep(t.Const)
}

// forEachCouplingMatch enumerates every relaxed match of every plan on
// D_G, handing the callback the variable bindings (aligned with
// cp.vars) and the G-representatives of the plan's constants.
func (se *ShardedEngine) forEachCouplingMatch(G *eqrel.Partition, plans []*couplingPlan,
	fn func(cp *couplingPlan, vals []db.Const, constVals []db.Const)) {
	e := se.eng
	ind := e.Induced(G)
	rep := e.repFor(G)
	for _, cp := range plans {
		cp := cp
		constVals := make([]db.Const, len(cp.consts))
		for i, c := range cp.consts {
			constVals[i] = c
			if rep != nil {
				constVals[i] = rep(c)
			}
		}
		cp.plan.plan.RunWith(ind, e.sims, cq.RunSpec{Rec: e.rec, Rep: rep},
			func(ans []db.Const, _ []cq.Match) bool {
				fn(cp, ans, constVals)
				return true
			})
	}
}

// simPositionsClash reports whether a mergeable constant occurs at a
// similarity-bound position of the base database (or directly inside a
// sim atom), the one configuration under which representative-name
// similarity evaluation could diverge from base-name evaluation.
func (se *ShardedEngine) simPositionsClash(mergeable func(db.Const) bool) bool {
	spec := se.eng.sess.spec
	type pos struct {
		rel string
		idx int
	}
	seen := make(map[pos]bool)
	var posns []pos
	scan := func(atoms []cq.Atom) bool {
		simVars := make(map[string]bool)
		for _, a := range atoms {
			if a.Kind != cq.KindSim {
				continue
			}
			for _, t := range a.Args {
				if t.IsVar {
					simVars[t.Name] = true
				} else if mergeable(t.Const) {
					return true
				}
			}
		}
		for _, a := range atoms {
			if a.Kind != cq.KindRel {
				continue
			}
			for i, t := range a.Args {
				if t.IsVar && simVars[t.Name] {
					p := pos{a.Pred, i}
					if !seen[p] {
						seen[p] = true
						posns = append(posns, p)
					}
				}
			}
		}
		return false
	}
	for _, r := range spec.MergeRules() {
		if scan(r.Body.Atoms) {
			return true
		}
	}
	for _, dn := range spec.Denials {
		if scan(dn.Atoms) {
			return true
		}
	}
	for _, p := range posns {
		for _, t := range se.eng.sess.d.Tuples(p.rel) {
			if mergeable(t[p.idx]) {
				return true
			}
		}
	}
	return false
}

// collectSupports runs one more pass over the relaxed matches with the
// final components of this round and gathers, per shard component, the
// set of D_G constants any of its matches can reach. It also reports
// the components some denial match of D_G, inequalities included,
// touches: those whose restriction of G violates Δ.
func (se *ShardedEngine) collectSupports(G *eqrel.Partition, plans []*couplingPlan,
	comp *eqrel.Partition, mergeable func(db.Const) bool) (supports map[db.Const]map[db.Const]bool, violated map[db.Const]bool) {

	supports = make(map[db.Const]map[db.Const]bool)
	violated = make(map[db.Const]bool)
	add := func(root, c db.Const) {
		s := supports[root]
		if s == nil {
			s = make(map[db.Const]bool)
			supports[root] = s
		}
		s[c] = true
	}
	se.forEachCouplingMatch(G, plans, func(cp *couplingPlan, vals []db.Const, constVals []db.Const) {
		holds := true // every dropped inequality holds on D_G
		for _, nq := range cp.neq {
			a := termVal(nq[0], cp, vals, G)
			b := termVal(nq[1], cp, vals, G)
			if a == b {
				if G.ClassSize(a) == 1 {
					return
				}
				holds = false
			}
		}
		var root db.Const = -1
		for _, c := range vals {
			if mergeable(c) {
				root = comp.Rep(c)
				break
			}
		}
		if root < 0 {
			for _, c := range constVals {
				if mergeable(c) {
					root = comp.Rep(c)
					break
				}
			}
		}
		if root < 0 {
			return // no shard touched: spectator-only match
		}
		if !cp.rule && holds {
			violated[root] = true
		}
		for _, c := range vals {
			add(root, c)
		}
		for _, c := range constVals {
			add(root, c)
		}
	})
	// Every member (through its G-image) supports its own shard, even if
	// no match mentions it this round.
	for i := 0; i < comp.N(); i++ {
		c := db.Const(i)
		if comp.ClassSize(c) > 1 && mergeable(c) {
			add(comp.Rep(c), G.Rep(c))
		}
	}
	return supports, violated
}

// planShards materializes this round's shards, ordered by root, from
// the component partition and support sets.
func (se *ShardedEngine) planShards(comp *eqrel.Partition, hasHead map[db.Const]bool,
	supports map[db.Const]map[db.Const]bool) []*Shard {

	var all []*Shard
	for _, cls := range comp.NontrivialClasses() {
		root := cls[0]
		if !hasHead[root] {
			continue
		}
		sup := supports[root]
		supList := make([]db.Const, 0, len(sup))
		for c := range sup {
			supList = append(supList, c)
		}
		sort.Slice(supList, func(i, j int) bool { return supList[i] < supList[j] })
		all = append(all, &Shard{Root: root, Members: cls, support: supList})
	}
	return all
}

// project gives each shard its projected base tuples.
func (se *ShardedEngine) project(shards []*Shard, supports map[db.Const]map[db.Const]bool, G *eqrel.Partition) {
	if len(shards) == 0 {
		return
	}
	d := se.eng.sess.d
	// constToRoots: which shards' supports contain a given D_G constant,
	// indexed by constant. Each (constant, root) pair is appended exactly
	// once, so the per-constant lists are duplicate-free.
	constToRoots := make([][]db.Const, d.Interner().Size())
	byRoot := make(map[db.Const]*Shard, len(shards))
	for _, sh := range shards {
		sh.tuples = make(map[string][][]db.Const)
		byRoot[sh.Root] = sh
		for c := range supports[sh.Root] {
			constToRoots[c] = append(constToRoots[c], sh.Root)
		}
	}

	// Project base tuples: a tuple joins every shard whose support
	// contains its entire G-image. Such a shard appears in every image
	// constant's root list, so it suffices to scan the most selective
	// (shortest) list — shared spectator constants like positions or
	// years have long lists, but every tuple also carries an entity
	// reference whose list is tiny.
	var img []db.Const
	for _, rel := range d.Schema().Relations() {
		for _, t := range d.Tuples(rel.Name) {
			img = img[:0]
			var best []db.Const
			skip := false
			for _, c := range t {
				r := G.Rep(c)
				img = append(img, r)
				lst := constToRoots[r]
				if len(lst) == 0 {
					skip = true
					break
				}
				if best == nil || len(lst) < len(best) {
					best = lst
				}
			}
			if skip {
				continue
			}
		nextRoot:
			for _, root := range best {
				sup := supports[root]
				for _, c := range img {
					if !sup[c] {
						continue nextRoot
					}
				}
				sh := byRoot[root]
				sh.tuples[rel.Name] = append(sh.tuples[rel.Name], t)
			}
		}
	}
}

// solveShards solves the shards on a bounded worker pool,
// returning how many were served from the cross-epoch solve cache
// instead. Each worker buffers its instrumentation in an obs.Local
// flushed on exit, mirroring the parallel searcher's discipline.
func (se *ShardedEngine) solveShards(ctx context.Context, shards []*Shard) (int, error) {
	if len(shards) == 0 {
		return 0, nil
	}
	// Consult the solve cache first: a hit replays the cached result
	// surfaces (shared frozen slices), only misses reach the pool.
	toSolve := shards
	var keys map[*Shard]string
	cache := se.sopts.SolveCache
	if cache != nil {
		toSolve = make([]*Shard, 0, len(shards))
		keys = make(map[*Shard]string, len(shards))
		for _, sh := range shards {
			key := se.shardKey(sh)
			keys[sh] = key
			if res, ok := cache.get(key); ok {
				sh.maximal, sh.possible = res.maximal, res.possible
				sh.certain, sh.solvable = res.certain, res.solvable
				continue
			}
			toSolve = append(toSolve, sh)
		}
		hits := len(shards) - len(toSolve)
		se.cacheHits += hits
		se.cacheMisses += len(toSolve)
		se.eng.rec.Inc(obs.CoreShardCacheHits, int64(hits))
		se.eng.rec.Inc(obs.CoreShardCacheMisses, int64(len(toSolve)))
		if len(toSolve) == 0 {
			return hits, nil
		}
	}
	se.eng.sess.freezeShared()
	workers := se.eng.sess.workers()
	if workers > len(toSolve) {
		workers = len(toSolve)
	}
	inner := 1
	if len(toSolve) == 1 {
		// A single shard to solve may use the full configured parallelism
		// inside its own search.
		inner = se.eng.sess.workers()
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	tasks := make(chan *Shard)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := obs.NewLocal(se.eng.rec)
			defer rec.Flush()
			for sh := range tasks {
				if err := se.solveShard(cctx, sh, inner, rec); err != nil {
					fail(err)
					continue
				}
				if cache != nil {
					cache.put(keys[sh], &shardResult{
						maximal: sh.maximal, possible: sh.possible,
						certain: sh.certain, solvable: sh.solvable,
					})
				}
			}
		}()
	}
	for _, sh := range toSolve {
		tasks <- sh
	}
	close(tasks)
	wg.Wait()
	return len(shards) - len(toSolve), firstErr
}

// solveShard builds the shard's local instance — renumbered projected
// database, constant-rewritten spec, sim-registry slice, per-shard
// Session — enumerates its maximal solutions and maps the results back
// to global constants.
func (se *ShardedEngine) solveShard(ctx context.Context, sh *Shard, inner int, rec obs.Recorder) error {
	sp := rec.Start(obs.SpanShardSolve)
	defer sp.AttrInt("members", int64(len(sh.Members))).End()
	rec.Inc(obs.CoreShardSolves, 1)

	sess := se.eng.sess
	gin := sess.d.Interner()
	lin := db.NewInterner()
	ldb := db.New(sess.d.Schema(), lin)
	var names []string
	for _, rel := range sess.d.Schema().Relations() {
		for _, t := range sh.tuples[rel.Name] {
			names = names[:0]
			for _, c := range t {
				names = append(names, gin.Name(c))
			}
			if _, err := ldb.InsertNames(rel.Name, names...); err != nil {
				return fmt.Errorf("core: shard %d: %w", sh.Root, err)
			}
		}
	}
	lspec := rewriteSpec(sess.spec, gin, lin)
	lsims := sliceRegistry(sess.sims, lspec)

	lopts := sess.opts
	lopts.Parallelism = inner
	lopts.Recorder = rec
	if lopts.CacheSize > 64*inner && len(sh.Members) < 1024 {
		lopts.CacheSize = 64 * inner
	}
	lsess, err := buildSession(ldb, lspec, lsims, lopts)
	if err != nil {
		return fmt.Errorf("core: shard %d: %w", sh.Root, err)
	}
	leng := &Engine{Context: &Context{
		sess:  lsess,
		cache: newInducedCache(lsess.opts.CacheSize),
		sims:  lsims,
		rec:   lsess.rec,
	}}

	ms, err := leng.MaximalSolutionsCtx(ctx)
	if err != nil {
		return fmt.Errorf("core: shard %d: %w", sh.Root, err)
	}

	toGlobal := make([]db.Const, lin.Size())
	for i := range toGlobal {
		g, ok := gin.Lookup(lin.Name(db.Const(i)))
		if !ok {
			return fmt.Errorf("core: shard %d: local constant %q missing globally", sh.Root, lin.Name(db.Const(i)))
		}
		toGlobal[i] = g
	}

	sh.solvable = len(ms) > 0
	sh.maximal = make([][]eqrel.Pair, len(ms))
	possible := make(map[eqrel.Pair]bool)
	var certain map[eqrel.Pair]bool
	for i, m := range ms {
		pairs := m.Pairs()
		global := make([]eqrel.Pair, len(pairs))
		set := make(map[eqrel.Pair]bool, len(pairs))
		for j, p := range pairs {
			gp := eqrel.MakePair(toGlobal[p.A], toGlobal[p.B])
			global[j] = gp
			possible[gp] = true
			set[gp] = true
		}
		sortPairsInPlace(global)
		sh.maximal[i] = global
		if i == 0 {
			certain = set
		} else {
			for p := range certain {
				if !set[p] {
					delete(certain, p)
				}
			}
		}
	}
	// Order the choices canonically on the shard's own members, the
	// order the instance's maximal solutions compare them in (see
	// witnesses).
	sort.Slice(sh.maximal, func(i, j int) bool {
		return memberKey(sh.Members, sh.maximal[i]) < memberKey(sh.Members, sh.maximal[j])
	})
	sh.possible = sortedPairs(possible)
	sh.certain = sortedPairs(certain)
	return nil
}

func sortPairsInPlace(ps []eqrel.Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
}

// rewriteSpec clones the specification with every constant re-interned
// into the shard's local interner. Structure, names and kinds are
// untouched, so the rewritten spec is validated by construction.
func rewriteSpec(spec *rules.Spec, gin, lin *db.Interner) *rules.Spec {
	atoms := func(as []cq.Atom) []cq.Atom {
		out := make([]cq.Atom, len(as))
		for i, a := range as {
			args := make([]cq.Term, len(a.Args))
			for j, t := range a.Args {
				if t.IsVar {
					args[j] = t
				} else {
					args[j] = cq.C(lin.Intern(gin.Name(t.Const)))
				}
			}
			out[i] = cq.Atom{Kind: a.Kind, Pred: a.Pred, Args: args}
		}
		return out
	}
	ls := &rules.Spec{}
	for _, r := range spec.Rules {
		nr := *r
		nr.Body = cq.CQ{Head: append([]string(nil), r.Body.Head...), Atoms: atoms(r.Body.Atoms)}
		ls.Rules = append(ls.Rules, &nr)
	}
	for _, dn := range spec.Denials {
		nd := *dn
		nd.Atoms = atoms(dn.Atoms)
		ls.Denials = append(ls.Denials, &nd)
	}
	return ls
}

// sliceRegistry forks the base registry and keeps only the predicates
// the spec uses: the per-shard sim registry slice. Forking gives each
// shard its own unsynchronized memo tier over the shared one, so
// concurrent shard solves never race.
func sliceRegistry(base *sim.Registry, spec *rules.Spec) *sim.Registry {
	names := make(map[string]bool)
	each := func(atoms []cq.Atom) {
		for _, a := range atoms {
			if a.Kind == cq.KindSim {
				names[a.Pred] = true
			}
		}
	}
	for _, r := range spec.Rules {
		each(r.Body.Atoms)
	}
	for _, dn := range spec.Denials {
		each(dn.Atoms)
	}
	f := base.Fork()
	out := sim.NewRegistry()
	for n := range names {
		if p, ok := f.Lookup(n); ok {
			out.Register(p)
		}
	}
	return out
}

// permanentViolation reports whether some denial constraint has a match
// on the base database none of whose constants is mergeable: such a
// violation survives every merge sequence, so Sol(D, Σ) = ∅.
func (se *ShardedEngine) permanentViolation(mergeable func(db.Const) bool) (bool, error) {
	e := se.eng
	for _, dn := range e.sess.spec.Denials {
		vars := cq.Vars(dn.Atoms)
		pq, err := prepare(dn.Atoms, vars, e.sess.d.Schema())
		if err != nil {
			return false, fmt.Errorf("core: denial %s: %w", dn.Name, err)
		}
		var consts []db.Const
		for _, a := range dn.Atoms {
			for _, t := range a.Args {
				if !t.IsVar {
					consts = append(consts, t.Const)
				}
			}
		}
		permanent := false
		pq.plan.RunWith(e.sess.d, e.sims, cq.RunSpec{Rec: e.rec},
			func(ans []db.Const, _ []cq.Match) bool {
				for _, c := range ans {
					if mergeable(c) {
						return true
					}
				}
				for _, c := range consts {
					if mergeable(c) {
						return true
					}
				}
				permanent = true
				return false
			})
		if permanent {
			return true, nil
		}
	}
	return false, nil
}

// --- results ----------------------------------------------------------

// MaximalSolutionsCtx composes the per-shard maximal solutions into the
// instance's maximal solutions: independence of shards makes the global
// set the product of the per-shard sets. The product size is capped by
// Options.MaxStates; exceeding it returns ErrBudget.
func (se *ShardedEngine) MaximalSolutionsCtx(ctx context.Context) ([]*eqrel.Partition, error) {
	if err := se.resolve(ctx); err != nil {
		return nil, err
	}
	if se.mono {
		return se.eng.Fork().MaximalSolutionsCtx(ctx)
	}
	if se.unsolvable {
		return nil, nil
	}
	sols := []*eqrel.Partition{se.eng.Identity()}
	for _, sh := range se.shards {
		next := make([]*eqrel.Partition, 0, len(sols)*len(sh.maximal))
		for _, base := range sols {
			for j, pairs := range sh.maximal {
				if len(next) >= se.eng.sess.opts.MaxStates {
					return nil, fmt.Errorf("core: %w: maximal-solution product exceeds MaxStates=%d",
						ErrBudget, se.eng.sess.opts.MaxStates)
				}
				// The last extension of base takes base itself: no other
				// product member refers to it any more.
				e := base
				if j < len(sh.maximal)-1 {
					e = base.Clone()
				}
				e.AddAll(pairs)
				next = append(next, e)
			}
		}
		sols = next
		if err := ctx.Err(); err != nil {
			return nil, limits.Wrap(err)
		}
	}
	sortPartitions(sols)
	return sols, nil
}

// CertainMergesCtx is the union of the shards' certain merges: a pair is
// in every maximal solution iff it is in every maximal solution of its
// own shard. Empty when no solution exists.
func (se *ShardedEngine) CertainMergesCtx(ctx context.Context) ([]eqrel.Pair, error) {
	if err := se.resolve(ctx); err != nil {
		return nil, err
	}
	if se.mono {
		return se.eng.Fork().CertainMergesCtx(ctx)
	}
	if se.unsolvable {
		return nil, nil
	}
	set := make(map[eqrel.Pair]bool)
	for _, sh := range se.shards {
		for _, p := range sh.certain {
			set[p] = true
		}
	}
	return sortedPairs(set), nil
}

// PossibleMergesCtx is the union of the shards' possible merges.
func (se *ShardedEngine) PossibleMergesCtx(ctx context.Context) ([]eqrel.Pair, error) {
	if err := se.resolve(ctx); err != nil {
		return nil, err
	}
	if se.mono {
		return se.eng.Fork().PossibleMergesCtx(ctx)
	}
	set := make(map[eqrel.Pair]bool)
	if !se.unsolvable {
		for _, sh := range se.shards {
			for _, p := range sh.possible {
				set[p] = true
			}
		}
	}
	// No solutions means no possible merges: like the monolithic
	// enumeration, this is the empty set, not nil.
	return sortedPairs(set), nil
}

// ExistenceCtx reports whether a solution exists. A restricted
// specification is decided by Theorem 8's hard-closure check, without
// resolving, and its witness is that hard closure; an instance that fell
// back to a monolithic solve is decided by the monolithic search, which
// stops at its first solution. Otherwise the witness is the first
// maximal solution in canonical order: each shard's first maximal
// solution, composed.
func (se *ShardedEngine) ExistenceCtx(ctx context.Context) (*eqrel.Partition, bool, error) {
	if se.eng.sess.spec.IsRestricted() {
		return se.eng.Fork().ExistenceCtx(ctx)
	}
	if err := se.resolve(ctx); err != nil {
		return nil, false, err
	}
	if se.mono {
		return se.eng.Fork().ExistenceCtx(ctx)
	}
	if se.unsolvable {
		return nil, false, nil
	}
	return se.composed(-1, 0), true, nil
}

// composed returns the maximal solution taking choice k in shard s and
// every other shard's first choice; s = -1 takes the first choice
// everywhere.
func (se *ShardedEngine) composed(s, k int) *eqrel.Partition {
	E := se.eng.Identity()
	for i, sh := range se.shards {
		if i == s {
			E.AddAll(sh.maximal[k])
		} else {
			E.AddAll(sh.maximal[0])
		}
	}
	return E
}

// witnesses picks, shard by shard, the first maximal solution in
// canonical order containing each pair and the first excluding it,
// without composing the product. Partition.Key concatenates
// self-delimiting per-constant encodings and no class spans two shards,
// so the product's canonical order compares the shards' choices on
// their own members independently: among the maximal solutions taking
// a given choice in one shard, the first takes every other shard's
// first choice, which solveShard puts at index 0.
func (se *ShardedEngine) witnesses(ctx context.Context, pairs []eqrel.Pair) (with, without []*eqrel.Partition, err error) {
	if err := se.resolve(ctx); err != nil {
		return nil, nil, err
	}
	if se.mono {
		return se.eng.Fork().witnesses(ctx, pairs)
	}
	with = make([]*eqrel.Partition, len(pairs))
	without = make([]*eqrel.Partition, len(pairs))
	if se.unsolvable {
		return with, without, nil
	}
	shardOf := make(map[db.Const]int)
	for i, sh := range se.shards {
		for _, c := range sh.Members {
			shardOf[c] = i
		}
	}
	// compose builds each named solution once, so pairs sharing a
	// witness share its Partition (and its replay).
	cache := make(map[[2]int]*eqrel.Partition)
	compose := func(s, k int) *eqrel.Partition {
		if k == 0 {
			s = -1
		}
		key := [2]int{s, k}
		if cache[key] == nil {
			cache[key] = se.composed(s, k)
		}
		return cache[key]
	}
	for pi, p := range pairs {
		s, ok := shardOf[p.A]
		if t, okB := shardOf[p.B]; !ok || !okB || s != t {
			// No shard merges the pair: every maximal solution excludes it.
			without[pi] = compose(-1, 0)
			continue
		}
		for k, ps := range se.shards[s].maximal {
			if !containsPair(ps, p) {
				if without[pi] == nil {
					without[pi] = compose(s, k)
				}
			} else if with[pi] == nil {
				with[pi] = compose(s, k)
			}
		}
	}
	return with, without, nil
}

// memberKey renders the canonical-key positions of members under the
// merge set pairs (every pair of the merged classes, sorted): each
// member's class representative, its least class-mate.
func memberKey(members []db.Const, pairs []eqrel.Pair) string {
	rep := make(map[db.Const]db.Const, len(pairs))
	for _, p := range pairs {
		if _, ok := rep[p.B]; !ok {
			rep[p.B] = p.A // pairs are sorted, so the first A is the least
		}
	}
	buf := make([]byte, 0, 2*len(members))
	for _, c := range members {
		r, ok := rep[c]
		if !ok {
			r = c
		}
		buf = db.AppendInt(buf, int(r))
	}
	return string(buf)
}

// containsPair reports whether the sorted merge set ps contains p.
func containsPair(ps []eqrel.Pair, p eqrel.Pair) bool {
	i := sort.Search(len(ps), func(i int) bool {
		return ps[i].A > p.A || (ps[i].A == p.A && ps[i].B >= p.B)
	})
	return i < len(ps) && ps[i] == p
}
