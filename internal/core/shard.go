package core

// shard.go re-architects resolution around partitioning: instead of one
// monolithic solution-space search over the whole instance, the domain
// is split into coupled components, and each component is answered by
// the lattice top or solved as an independent Shard (its own projected
// database, rewritten spec and Session over the shared sim registry).
//
// Resolution is one pass from the top T of the candidate lattice: the
// closure of the identity under every merge rule, which an epoch of a
// mutable session carries from its predecessor's instead of closing the
// identity again, with the coupling analysis below (carry.go). Every
// solution lies
// below T, so a consistent T is the unique maximal solution and answers
// the instance with no components, coupling analysis or shard solves; it
// is recorded as one single-choice shard per nontrivial T-class. Only an
// inconsistent T runs the stitch, with the components at T's classes.
// A merge only ever comes from a match of a rule body, similarity atoms
// included, so what guarantees sharded ≡ monolithic is the coupling
// analysis: each merge rule and each denial constraint is evaluated on
// D_T with its inequality atoms dropped and every variable exposed in
// the head. Sim-safety (enforced by Spec.Validate) makes rule and
// denial matches forward-map under merging, and every solution lies
// below T, so every match any solution can ever exhibit is the image of
// one of these relaxed matches; the constants of each relaxed match
// that can merge at all, those of its dropped inequalities included,
// are unioned into one component, hence no rule application or denial
// violation can ever span two shards. Inequality atoms are the one
// non-monotone ingredient, and dropping them is conservative; the only
// matches skipped are those whose dropped inequality binds one constant
// that provably never merges (a singleton class of T), which can never
// become a real match in any state. The shards can only derive merges
// already in T, so nothing they find is fed back: the stitch is a
// single pass. A component's local top is T restricted to it, so a
// component no violated denial match of D_T touches is answered by T
// too; only the others are solved. See DESIGN.md §11 for the full
// argument.

import (
	"context"
	"fmt"
	"slices"
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

// Shard is one unit of resolution: a coupled component of the constant
// space and its answer, the component's maximal choices. newShard makes
// every shard and record stores every answer, whether the top gives it
// or a solve of the component's projected sub-instance does.
type Shard struct {
	// Root is the component representative (minimum constant id).
	Root db.Const
	// Members are the component's constants, ascending: the only
	// constants this shard's solutions may merge.
	Members []db.Const

	// support is the sorted set of D_T-level constants reachable by a
	// relaxed match touching this component; a solve projects every base
	// tuple whose T-image stays inside it.
	support []db.Const

	// Results in global constant ids (see record).
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
	// Rounds is the number of stitch passes: 0 when the instance was
	// answered by the top (a consistent lattice top, with one shard per
	// nontrivial class of it), 1 when an inconsistent top ran the
	// stitch. Solves counts the per-shard solves performed; a shard the
	// top answers is not solved.
	Rounds, Solves int
	// Monolithic reports that the inconsistent top clashed at a
	// similarity position, the one case where the coupling analysis
	// would be unsound, so the instance is solved whole (see
	// solveWhole). Nothing is sharded then: Rounds is 1, and Shards,
	// Sizes and Solves are zero.
	Monolithic bool
}

// couplingPlan is one rule or denial body compiled for the coupling
// analysis: inequality atoms dropped, every variable in the head.
type couplingPlan struct {
	name string
	rule bool     // a merge rule (has a head pair) vs. a denial
	x, y int      // head-pair positions in vars (rules only)
	vars []string // the plan's head: all variables, sorted
	plan *cq.Plan
	// neq lists the dropped inequality atoms as term resolvers.
	neq [][2]cq.Term
	// consts are the constant ids of the body, dropped inequality atoms
	// included.
	consts []db.Const
}

// EpochSnapshot is the one resolution handle, of an instance
// (NewSnapshot) or of one epoch of a MutableSession: the frozen
// database, its fingerprint, and its resolution. Snapshots taken before
// a mutation keep answering against their own epoch.
//
// A snapshot resolves its instance from the top of the candidate
// lattice: a consistent top is the answer; an inconsistent one is
// partitioned into coupled components in one stitch pass. A component
// the top answers is recorded as is; the rest are each solved as a
// Shard over the parallel work queue. A top that clashes at a
// similarity position is solved whole, once, as one shard. Results are
// byte-identical to the monolithic Engine on the same instance.
//
// The first result call resolves the whole instance once (under that
// call's context); later calls reuse the per-shard results, and query
// answers and derivations are evaluated on a private Fork of the
// snapshot's engine. The result methods are safe for concurrent use.
type EpochSnapshot struct {
	epoch uint64
	d     *db.Database
	fp    string
	eng   *Engine

	// The top phase runs before the stitch, and a successor epoch waits
	// on it alone. from links to the predecessor epoch until the phase
	// has read it; pending counts the snapshots of the chain ending here
	// whose tops were uncomputed when it was built, this one included
	// (see maxPendingTops). Only an epoch of a mutable session
	// (carryable set) can have a successor, so any other snapshot's run
	// drops top as soon as it has read it. Both phases keep their first
	// outcome, results or a search error such as ErrBudget, but not a
	// cancelled or expired context: the next call runs the phase again.
	topMu     sync.Mutex
	top       *latticeTop
	topErr    error
	topDone   atomic.Bool
	carryable bool
	from      *lineage
	pending   int
	carried   bool // the top was carried from the predecessor's
	reclosed  int  // constants of the T-classes a carried top re-closed

	mu   sync.Mutex
	err  error
	done atomic.Bool // run completed without error

	shards     []*Shard // ordered by root
	stitched   bool     // the top was inconsistent and the stitch ran
	solves     int
	mono       bool // the top clashed: one shard, solved whole
	unsolvable bool // Sol(D, Σ) = ∅
}

// NewSnapshot validates the specification and returns the resolution
// handle of (d, spec, sims), numbered epoch, resolved on its first
// result call. The database is frozen. The snapshot is not an epoch of
// a session: nothing reads its lattice top after it has resolved, so it
// drops the top then. The core Options apply per shard (MaxStates
// bounds each shard's search; Parallelism bounds concurrent shard
// solves).
func NewSnapshot(d *db.Database, spec *rules.Spec, sims *sim.Registry, opts Options, epoch uint64) (*EpochSnapshot, error) {
	d.Freeze()
	return newSnapshot(d, spec, sims, opts, epoch)
}

// newSnapshot is NewSnapshot without freezing d.
func newSnapshot(d *db.Database, spec *rules.Spec, sims *sim.Registry, opts Options, epoch uint64) (*EpochSnapshot, error) {
	eng, err := New(d, spec, sims, opts)
	if err != nil {
		return nil, err
	}
	return &EpochSnapshot{epoch: epoch, d: d, fp: d.Fingerprint(), eng: eng, pending: 1}, nil
}

// next builds the epoch after s over d, whose batch retracted and
// inserted the given tuples. It shares s's session plans
// (newSessionFrom). Its top is carried from s's unless that would make
// a chain of more than maxPendingTops uncomputed tops.
func (s *EpochSnapshot) next(d *db.Database, retract, insert []db.Fact) *EpochSnapshot {
	sess := newSessionFrom(d, s.eng.sess)
	n := &EpochSnapshot{
		epoch: s.epoch + 1, d: d, fp: d.Fingerprint(),
		eng:     &Engine{Context: sess.newContext(DefaultCacheSize, sess.rec)},
		pending: 1, carryable: true,
	}
	pending := 1
	if !s.topDone.Load() {
		pending += s.pending
	}
	if pending <= maxPendingTops {
		n.from = &lineage{prev: s, retract: retract, insert: insert}
		n.pending = pending
	}
	return n
}

// Epoch returns the snapshot's epoch number (0 for the initial load).
func (s *EpochSnapshot) Epoch() uint64 { return s.epoch }

// DB returns the snapshot's database.
func (s *EpochSnapshot) DB() *db.Database { return s.d }

// Fingerprint returns the snapshot database's content fingerprint.
func (s *EpochSnapshot) Fingerprint() string { return s.fp }

// Engine returns the snapshot's monolithic engine, the owner of its
// session. Callers running queries concurrently must Fork it per
// goroutine, as always.
func (s *EpochSnapshot) Engine() *Engine { return s.eng }

// latticeTop computes the instance's lattice top: carried from the
// predecessor epoch's when there is one whose top succeeded without a
// similarity clash, closed from the identity otherwise (and when the
// carried top would clash). An inconsistent top's coupling is computed
// here too when it was not carried. Once an outcome is kept, the
// reference to the predecessor is dropped, so no epoch pins older ones.
func (s *EpochSnapshot) latticeTop(ctx context.Context) (*latticeTop, error) {
	s.topMu.Lock()
	defer s.topMu.Unlock()
	if s.topDone.Load() {
		return s.top, s.topErr
	}
	var top *latticeTop
	var err error
	if from := s.from; from != nil {
		if prev, perr := from.prev.latticeTop(ctx); perr == nil && !prev.clash {
			top, s.reclosed, err = s.carryTop(ctx, prev, from.retract, from.insert)
			s.carried = top != nil
		}
	}
	if top == nil && err == nil {
		T, ind, consistent, terr := s.eng.top(ctx)
		if err = terr; err == nil {
			top = s.finishTop(T, ind, consistent)
		}
	}
	if top != nil && top.coupling == nil && !top.consistent && !top.clash {
		top.coupling, err = s.couple(ctx, top)
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil, err // cut short by the caller: not kept
		}
		top = nil
	}
	s.top, s.topErr, s.from = top, err, nil
	s.topDone.Store(true)
	return top, err
}

// Stats returns the partition summary of the resolved instance. It
// resolves first if no result method ran yet, except on a top that
// clashes at a similarity position: nothing is sharded there, so the
// top phase alone decides the summary.
func (s *EpochSnapshot) Stats() (ShardStats, error) {
	ctx := context.Background()
	mono, err := s.fallsBack(ctx)
	if err != nil {
		return ShardStats{}, err
	}
	if mono {
		return ShardStats{Rounds: 1, Monolithic: true}, nil
	}
	if err := s.resolve(ctx); err != nil {
		return ShardStats{}, err
	}
	st := ShardStats{Shards: len(s.shards), Rounds: s.rounds(), Solves: s.solves}
	for _, sh := range s.shards {
		st.Sizes = append(st.Sizes, len(sh.Members))
	}
	return st, nil
}

// fallsBack reports whether the instance is solved whole, as one shard:
// whether its top is inconsistent and clashes at a similarity position.
// It reads the resolution once there is one, else the top phase alone,
// so it never solves.
func (s *EpochSnapshot) fallsBack(ctx context.Context) (bool, error) {
	if s.Resolved() {
		return s.mono, nil
	}
	top, err := s.latticeTop(ctx)
	if err != nil {
		return false, err
	}
	return !top.consistent && top.clash, nil
}

// rounds is ShardStats.Rounds: 1 when the stitch ran, else 0.
func (s *EpochSnapshot) rounds() int {
	if s.stitched {
		return 1
	}
	return 0
}

// resolve runs the full pipeline: the top, then (when it is
// inconsistent) the stitch; it remembers per-shard results. A run cut
// short by its caller's context is not kept, so a later call on a live
// context runs again.
func (s *EpochSnapshot) resolve(ctx context.Context) error {
	if s.done.Load() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done.Load() && s.err == nil {
		err := s.run(ctx)
		if err != nil && ctx.Err() != nil {
			return err
		}
		s.err = err
		s.done.Store(err == nil)
	}
	return s.err
}

// Resolved reports whether a resolution pass has already completed
// successfully. It never triggers one — use it to ask "are the shard
// results available right now" from a goroutine that must not block.
func (s *EpochSnapshot) Resolved() bool { return s.done.Load() }

// TouchedShards counts resolved shards whose support contains any of
// the given constants: after a stitch, the number of components a fact
// batch naming those constants dirties. For an instance answered by
// the top, whose shards are the nontrivial T-classes supported by their
// members only, it is the number of T-classes the constants name, a
// lower bound on the classes such a batch can change. It returns -1
// when no resolution has completed yet, or when the instance was solved
// whole (where per-shard accounting is meaningless).
func (s *EpochSnapshot) TouchedShards(consts map[db.Const]bool) int {
	if !s.Resolved() || s.mono {
		return -1
	}
	n := 0
	for _, sh := range s.shards {
		for _, c := range sh.support {
			if consts[c] {
				n++
				break
			}
		}
	}
	return n
}

func (s *EpochSnapshot) run(ctx context.Context) error {
	e := s.eng
	rec := e.rec
	sp := rec.Start(obs.SpanShardPlan)
	defer sp.End()

	// Stage 0: the top T of the candidate lattice. Every solution lies
	// below T, so a consistent T is the unique maximal solution and
	// answers the instance; an inconsistent one seeds the stitch.
	top, err := s.latticeTop(ctx)
	if err != nil {
		return err
	}
	if !s.carryable {
		// No successor will read the top; this run holds its own, and a
		// run retried after a cancellation computes it again.
		s.topMu.Lock()
		s.top = nil
		s.topDone.Store(false)
		s.topMu.Unlock()
	}
	s.shards = nil // left over from a cancelled run
	consistent := top.consistent
	switch {
	case consistent:
		s.shards = topShards(top.T)
	case top.clash:
		s.stitched = true
		return s.solveWhole(ctx, top.T)
	default:
		s.stitched = true
		if err := s.stitch(ctx, top); err != nil {
			return err
		}
	}

	rec.Gauge(obs.CoreShardCount, int64(len(s.shards)))
	rec.Gauge(obs.CoreShardRounds, int64(s.rounds()))
	largest := 0
	for _, sh := range s.shards {
		rec.Observe(obs.HistShardSize, time.Duration(int64(len(sh.Members))))
		if len(sh.Members) > largest {
			largest = len(sh.Members)
		}
	}
	rec.Gauge(obs.CoreShardLargest, int64(largest))
	sp.AttrInt("shards", int64(len(s.shards))).AttrInt("rounds", int64(s.rounds())).
		AttrInt("top_consistent", boolInt(consistent)).AttrInt("top_carried", boolInt(s.carried)).
		AttrInt("top_reclosed", int64(s.reclosed)).AttrInt("top_kept", boolInt(s.carryable))
	return nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// newShard returns the shard of a component: its members, ascending,
// and its support.
func newShard(members, support []db.Const) *Shard {
	return &Shard{Root: members[0], Members: members, support: support}
}

// topShards records a consistent top T as the resolution: one
// single-choice shard per nontrivial T-class, whose members, support,
// only maximal choice, possible merges and certain merges are all that
// class. Composition, witnesses and TouchedShards then read it like any
// solved shard, with no stitch, plan or solve behind it.
func topShards(T *eqrel.Partition) []*Shard {
	classes := T.NontrivialClasses()
	shards := make([]*Shard, len(classes))
	for i, cls := range classes {
		shards[i] = newShard(cls, cls)
		shards[i].record([][]eqrel.Pair{topChoice(T, cls)})
	}
	return shards
}

// topChoice is T's restriction to members, a shard's one maximal choice
// when the top answers it. Members ascend, so the pairs come out in
// canonical order.
func topChoice(T *eqrel.Partition, members []db.Const) []eqrel.Pair {
	var pairs []eqrel.Pair
	for i, a := range members {
		for _, b := range members[i+1:] {
			if T.Same(a, b) {
				pairs = append(pairs, eqrel.Pair{A: a, B: b})
			}
		}
	}
	return pairs
}

// solveWhole resolves an instance whose inconsistent top clashes at a
// similarity position. The coupling analysis evaluates similarity on
// representative names, which is faithful only while no mergeable
// constant sits at a similarity position (the value-level shadow of the
// attribute-level sim-safety check), so the instance is solved by one
// monolithic search instead: exact, just unsharded. Its maximal
// solutions are recorded as one shard whose members are every constant
// of a nontrivial T-class; every solution lies below T, so no merge
// falls outside them, and composition and witnesses read the shard like
// any solved one.
func (s *EpochSnapshot) solveWhole(ctx context.Context, T *eqrel.Partition) error {
	ms, err := s.eng.Fork().MaximalSolutionsCtx(ctx)
	if err != nil {
		return err
	}
	var members []db.Const
	for _, cls := range T.NontrivialClasses() {
		members = append(members, cls...)
	}
	slices.Sort(members)
	sh := newShard(members, members)
	sh.record(choicesOf(ms, nil))
	s.shards, s.mono, s.unsolvable = []*Shard{sh}, true, !sh.solvable
	return nil
}

// stitch resolves an instance whose top T violates Δ in one pass: the
// component partition starts at T's classes, every member a potential
// merge endpoint. Every solution lies below T, so the shards can only
// derive merges already in T and nothing is fed back; only components
// a violated denial touches are solved (DESIGN.md §11).
func (s *EpochSnapshot) stitch(ctx context.Context, top *latticeTop) error {
	T := top.T
	// Stage 1: the components, from the coupling of the relaxed matches
	// on D_T that the top phase computed (couple) or carried (carry.go).
	// A match's mergeable constants are coupled into its anchor's
	// component, so no rule application or denial violation may span
	// two shards; a violated denial match with no mergeable constant is
	// violated in every state below T, so no solution exists. One pass
	// reaches the components' fixpoint: coupling only unions mergeable
	// constants, and T is closed under every merge rule, so a second
	// pass would find every match's mergeable constants in one
	// component already.
	cpl := top.coupling
	comp := T.Clone()
	for r, cc := range cpl.classes {
		for _, c := range cc.coupled {
			comp.Union(r, c)
		}
	}
	unsolvable := cpl.trivial > 0

	// A component's support is its classes' supports (a class no match
	// anchors at is supported by its representative alone), and a
	// violated class marks it. A component no violated denial match of
	// D_T touches has T's restriction as its local top, and that top is
	// consistent: it is the component's one maximal solution. Only the
	// other components are solved, in parallel over the work queue, each
	// projecting its own sub-instance; others lists T's nontrivial classes
	// by representative, for the rare support that names a class of
	// another component (from a match that couples nothing), and is built
	// only then.
	var toSolve []*Shard
	var others map[db.Const][]db.Const
	for _, members := range comp.NontrivialClasses() {
		var support []db.Const
		violated := false
		for _, c := range members {
			if T.Rep(c) != c {
				continue
			}
			sup := []db.Const{c}
			if cc := cpl.classes[c]; cc != nil {
				sup = cc.support
				violated = violated || cc.violated
			}
			if support == nil {
				support = sup
			} else {
				merged := append(slices.Clone(support), sup...)
				slices.Sort(merged)
				support = slices.Compact(merged)
			}
		}
		sh := newShard(members, support)
		s.shards = append(s.shards, sh)
		if !violated {
			sh.record([][]eqrel.Pair{topChoice(T, members)})
			continue
		}
		toSolve = append(toSolve, sh)
		for _, c := range support {
			if _, own := slices.BinarySearch(members, c); !own && others == nil && T.ClassSize(c) > 1 {
				others = make(map[db.Const][]db.Const)
				for _, cls := range T.NontrivialClasses() {
					others[cls[0]] = cls
				}
			}
		}
	}
	if err := s.solveShards(ctx, toSolve, T, others); err != nil {
		return err
	}
	s.solves = len(toSolve)
	for _, sh := range s.shards {
		if !sh.solvable {
			unsolvable = true
		}
	}
	s.unsolvable = unsolvable
	return nil
}

// coupling is the stitch's analysis of the relaxed matches on D_T (every
// merge rule and denial with its inequality atoms dropped), recorded by
// anchor class so that an epoch can carry it from its predecessor's
// and recompute only the classes its batch reaches (carry.go). A
// match's anchor is its first mergeable constant, a member of a
// nontrivial T-class; every solution lies below T, so only those
// constants may merge.
type coupling struct {
	classes map[db.Const]*classCoupling // by T-class representative
	// trivial counts the violated denial matches with no mergeable
	// constant: each is violated in every state below T, so while one
	// exists the instance has no solution.
	trivial int
}

// consistent reports whether (D, T) satisfies Δ: whether no denial
// match on D_T has all its dropped inequalities hold.
func (cpl *coupling) consistent() bool {
	if cpl.trivial > 0 {
		return false
	}
	for _, cc := range cpl.classes {
		if cc.violated {
			return false
		}
	}
	return true
}

// classCoupling is what the relaxed matches anchored at one T-class
// contribute: all their constants support the class, the mergeable
// constants of those that couple join its component, and a denial
// match whose dropped inequalities all hold on D_T marks it violated.
// A record is read-only once built: successor epochs share it, and a
// shard of a single class shares its support.
type classCoupling struct {
	support  []db.Const // ascending, the class's representative included
	coupled  []db.Const // ascending
	violated bool
}

// couplingBuilder collects classified matches into class records.
type couplingBuilder struct {
	classes map[db.Const]*classBuild
	trivial int
}

type classBuild struct {
	support, coupled map[db.Const]bool
	violated         bool
}

func newCouplingBuilder() *couplingBuilder {
	return &couplingBuilder{classes: make(map[db.Const]*classBuild)}
}

// record adds a real classified match: to the trivial count when it
// has no anchor, else to its anchor class's record.
func (b *couplingBuilder) record(m couplingMatch, vals, consts []db.Const, T *eqrel.Partition, mergeable func(db.Const) bool) {
	if m.anchor < 0 {
		if m.violated {
			b.trivial++
		}
		return
	}
	cls := T.Rep(m.anchor)
	cb := b.classes[cls]
	if cb == nil {
		cb = &classBuild{support: map[db.Const]bool{cls: true}, coupled: make(map[db.Const]bool)}
		b.classes[cls] = cb
	}
	for _, cs := range [2][]db.Const{vals, consts} {
		for _, c := range cs {
			cb.support[c] = true
			if m.couples && mergeable(c) {
				cb.coupled[c] = true
			}
		}
	}
	if m.violated {
		cb.violated = true
	}
}

// finish stores the built records in into.
func (b *couplingBuilder) finish(into map[db.Const]*classCoupling) {
	for r, cb := range b.classes {
		into[r] = &classCoupling{support: sortedConsts(cb.support), coupled: sortedConsts(cb.coupled), violated: cb.violated}
	}
}

func sortedConsts(set map[db.Const]bool) []db.Const {
	out := make([]db.Const, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// couplingMatch classifies one relaxed match against a top.
type couplingMatch struct {
	real     bool     // every dropped inequality can hold below the top
	anchor   db.Const // first mergeable constant, -1 if none
	couples  bool     // its mergeable constants join the anchor's component
	violated bool     // a denial match whose dropped inequalities hold
}

// classify decides what the relaxed match vals of cp means below the
// top T, whose mergeable constants are those of its nontrivial classes.
// consts are cp's constants under T's representatives.
func classify(cp *couplingPlan, vals, consts []db.Const, T *eqrel.Partition, mergeable func(db.Const) bool) (couplingMatch, error) {
	holds := true
	for _, nq := range cp.neq {
		if a := termVal(nq[0], cp, vals, T); a == termVal(nq[1], cp, vals, T) {
			if !mergeable(a) {
				return couplingMatch{}, nil // binds a constant that never merges: never a real match
			}
			holds = false
		}
	}
	m := couplingMatch{real: true, anchor: -1, couples: true, violated: !cp.rule && holds}
	if cp.rule {
		u, v := vals[cp.x], vals[cp.y]
		if u != v {
			return m, fmt.Errorf("core: internal error: rule %s derives %d = %d on the lattice top's induced database", cp.name, u, v)
		}
		// A head in a T-class is merged already; a T-singleton head
		// derives nothing in any state below T.
		m.couples = mergeable(u)
	}
	for _, cs := range [2][]db.Const{vals, consts} {
		for _, c := range cs {
			if mergeable(c) {
				m.anchor = c
				return m, nil
			}
		}
	}
	return m, nil
}

// planConsts maps cp's constants through rep (nil: unchanged).
func planConsts(cp *couplingPlan, rep func(db.Const) db.Const) []db.Const {
	consts := make([]db.Const, len(cp.consts))
	for i, c := range cp.consts {
		consts[i] = c
		if rep != nil {
			consts[i] = rep(c)
		}
	}
	return consts
}

// couple computes top's coupling in one pass over every relaxed match
// on D_T.
func (s *EpochSnapshot) couple(ctx context.Context, top *latticeTop) (*coupling, error) {
	T := top.T
	mergeable := func(c db.Const) bool { return T.ClassSize(c) > 1 }
	b := newCouplingBuilder()
	if err := s.runCoupling(ctx, top.ind, T, s.eng.repFor(T), mergeable, nil, func(m couplingMatch, vals, consts []db.Const) {
		b.record(m, vals, consts, T, mergeable)
	}); err != nil {
		return nil, err
	}
	cpl := &coupling{classes: make(map[db.Const]*classCoupling, len(b.classes)), trivial: b.trivial}
	b.finish(cpl.classes)
	return cpl, nil
}

// runCoupling runs every coupling plan over d, the database T induces
// through rep, and visits each real classified match with its values
// and the plan's constants under rep: every match when delta is nil,
// only those using a touched row of delta otherwise.
func (s *EpochSnapshot) runCoupling(ctx context.Context, d *db.Database, T *eqrel.Partition, rep func(db.Const) db.Const, mergeable func(db.Const) bool,
	delta *cq.Delta, visit func(m couplingMatch, vals, consts []db.Const)) error {
	plans, err := s.eng.sess.couplingPlans()
	if err != nil {
		return err
	}
	rs := cq.RunSpec{Rec: s.eng.rec, Rep: rep, Delta: delta}
	var failed error
	for _, cp := range plans {
		if err := ctx.Err(); err != nil {
			return limits.Wrap(err)
		}
		consts := planConsts(cp, rep)
		cp.plan.Run(d, rs, func(vals []db.Const) bool {
			m, err := classify(cp, vals, consts, T, mergeable)
			if err != nil {
				failed = err
				return false
			}
			if m.real {
				visit(m, vals, consts)
			}
			return true
		})
		if failed != nil {
			return failed
		}
	}
	return nil
}

// couplingPlanSet is a session's coupling plans, compiled once.
type couplingPlanSet struct {
	once  sync.Once
	plans []*couplingPlan
	err   error
}

// couplingPlans returns the relaxed form of every merge rule and
// denial (inequality atoms dropped, all variables exposed in the head),
// compiled on first use.
func (s *Session) couplingPlans() ([]*couplingPlan, error) {
	cs := s.coupling
	cs.once.Do(func() { cs.plans, cs.err = s.compileCouplingPlans() })
	return cs.plans, cs.err
}

func (s *Session) compileCouplingPlans() ([]*couplingPlan, error) {
	var out []*couplingPlan
	build := func(name string, atoms []cq.Atom, head []string) (*couplingPlan, error) {
		cp := &couplingPlan{name: name}
		var kept []cq.Atom
		for _, a := range atoms {
			// A dropped inequality's constants are constants of the
			// match too: they must be coupled and projected with it.
			for _, t := range a.Args {
				if !t.IsVar {
					cp.consts = append(cp.consts, t.Const)
				}
			}
			if a.Kind == cq.KindNeq {
				cp.neq = append(cp.neq, [2]cq.Term{a.Args[0], a.Args[1]})
				continue
			}
			kept = append(kept, a)
		}
		cp.vars = cq.Vars(kept)
		var err error
		if cp.plan, err = cq.Prepare(kept, cp.vars, s.d.Schema(), s.sims); err != nil {
			return nil, fmt.Errorf("core: coupling plan %s: %w", name, err)
		}
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
	for _, r := range s.mergeRules {
		cp, err := build(r.Name, r.Body.Atoms, r.Body.Head)
		if err != nil {
			return nil, err
		}
		out = append(out, cp)
	}
	for _, dn := range s.spec.Denials {
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
// through the answer row, constants through their T-representative.
func termVal(t cq.Term, cp *couplingPlan, vals []db.Const, T *eqrel.Partition) db.Const {
	if t.IsVar {
		return vals[indexOf(cp.vars, t.Name)]
	}
	return T.Rep(t.Const)
}

// simPositionsClash reports whether a mergeable constant occurs at a
// similarity-bound position of the base database (or directly inside a
// sim atom), the one configuration under which representative-name
// similarity evaluation could diverge from base-name evaluation.
func (s *EpochSnapshot) simPositionsClash(mergeable func(db.Const) bool) bool {
	spec := s.eng.sess.spec
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
		for _, t := range s.eng.sess.d.Tuples(p.rel) {
			if mergeable(t[p.idx]) {
				return true
			}
		}
	}
	return false
}

// minParallelShard is the smallest shard whose search runs on more than
// one worker. A shard of a few members has a lattice of a few states,
// which one worker walks faster than several can hand states to each
// other, and without goroutine handoffs to wait on.
const minParallelShard = 16

// solveShards solves the shards on a bounded worker pool over a
// pre-filled task list. Worker 0 is the caller's goroutine; one more
// goroutine starts per further shard, up to the configured parallelism,
// and each buffers its instrumentation in an obs.Local flushed on exit,
// mirroring the lattice walk's discipline. A lone shard may use the full
// configured parallelism inside its own search once it is large enough
// for a parallel walk to pay for its goroutines. The first error
// cancels the rest.
func (s *EpochSnapshot) solveShards(ctx context.Context, toSolve []*Shard, T *eqrel.Partition, others map[db.Const][]db.Const) error {
	if len(toSolve) == 0 {
		return nil
	}
	sess := s.eng.sess
	sess.freezeShared()
	inner := 1
	if len(toSolve) == 1 && len(toSolve[0].Members) >= minParallelShard {
		inner = sess.workers()
	}
	tasks := make(chan *Shard, len(toSolve))
	for _, sh := range toSolve {
		tasks <- sh
	}
	close(tasks)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex
	var firstErr error
	work := func(rec obs.Recorder) {
		for sh := range tasks {
			if err := s.solveShard(cctx, sh, T, others, inner, rec); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
					cancel()
				}
				mu.Unlock()
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(sess.workers(), len(toSolve)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := obs.NewLocal(s.eng.rec)
			defer rec.Flush()
			work(rec)
		}()
	}
	work(s.eng.rec)
	wg.Wait()
	return firstErr
}

// solveShard builds the shard's local instance — its projected database,
// renumbered; the constant-rewritten spec; a Session over the session's
// similarity registry — enumerates its maximal solutions and records
// them in global constants.
//
// The projected database holds the base tuples whose whole T-image lies
// in the shard's support, relation by relation in schema order and by
// ascending row position, so the local instance is deterministic. Such a
// tuple's first constant is a member of a support constant's T-class, so
// the first column's index finds every candidate from those members, at
// a cost in proportion to the shard, not to the database. The shard's
// members are whole T-classes, a support constant outside them is a
// T-singleton or the representative of another component's class, and
// others holds those classes (it is only read).
func (s *EpochSnapshot) solveShard(ctx context.Context, sh *Shard, T *eqrel.Partition, others map[db.Const][]db.Const, inner int, rec obs.Recorder) error {
	sp := rec.Start(obs.SpanShardSolve)
	defer sp.AttrInt("members", int64(len(sh.Members))).End()
	rec.Inc(obs.CoreShardSolves, 1)

	sess := s.eng.sess
	d, gin := sess.d, sess.d.Interner()
	sup := make(map[db.Const]bool, len(sh.support))
	firsts := append([]db.Const(nil), sh.Members...)
	for _, c := range sh.support {
		sup[c] = true
		if _, own := slices.BinarySearch(sh.Members, c); !own {
			if T.ClassSize(c) == 1 {
				firsts = append(firsts, c)
			} else {
				firsts = append(firsts, others[c]...)
			}
		}
	}
	lin := db.NewInterner()
	ldb := db.New(d.Schema(), lin)
	var rows []int32
	var names []string
	for _, rel := range d.Schema().Relations() {
		t := d.Table(rel.Name)
		if t == nil || rel.Arity() == 0 {
			continue
		}
		tuples := t.Tuples()
		rows = rows[:0]
		for _, c := range firsts {
		next:
			for _, row := range t.Lookup(0, c) {
				for _, x := range tuples[row][1:] {
					if !sup[T.Rep(x)] {
						continue next
					}
				}
				rows = append(rows, row)
			}
		}
		slices.Sort(rows)
		for _, row := range rows {
			names = names[:0]
			for _, c := range tuples[row] {
				names = append(names, gin.Name(c))
			}
			if _, err := ldb.InsertNames(rel.Name, names...); err != nil {
				return fmt.Errorf("core: shard %d: %w", sh.Root, err)
			}
		}
	}
	lspec := rewriteSpec(sess.spec, gin, lin)
	// A body without constants compiles to the same plan over any
	// interner, so the shard reuses the instance's.
	plans := make(map[any]*cq.Plan)
	for i, r := range sess.spec.Rules {
		if p := sess.plans[r]; p != nil && constantFree(r.Body.Atoms) {
			plans[lspec.Rules[i]] = p
		}
	}
	for i, dn := range sess.spec.Denials {
		if p := sess.plans[dn]; p != nil && constantFree(dn.Atoms) {
			plans[lspec.Denials[i]] = p
		}
	}

	lopts := sess.opts
	lopts.Parallelism = inner
	lopts.Recorder = rec
	lsess, err := buildSession(ldb, lspec, sess.sims, lopts, plans)
	if err != nil {
		return fmt.Errorf("core: shard %d: %w", sh.Root, err)
	}
	cacheSize := DefaultCacheSize
	if len(sh.Members) < 1024 {
		cacheSize = min(cacheSize, 64*inner)
	}
	leng := &Engine{Context: lsess.newContext(cacheSize, lsess.rec)}

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
	sh.record(choicesOf(ms, toGlobal))
	return nil
}

// choicesOf renders maximal solutions as sorted merge sets in global
// constants, mapping each constant through toGlobal (nil: unchanged).
func choicesOf(ms []*eqrel.Partition, toGlobal []db.Const) [][]eqrel.Pair {
	choices := make([][]eqrel.Pair, len(ms))
	for i, m := range ms {
		pairs := m.Pairs()
		if toGlobal != nil {
			for j, p := range pairs {
				pairs[j] = eqrel.MakePair(toGlobal[p.A], toGlobal[p.B])
			}
			sortPairsInPlace(pairs)
		}
		choices[i] = pairs
	}
	return choices
}

// record stores the shard's maximal choices, each a sorted merge set in
// global constants, with their possible and certain merges, and whether
// the shard has a solution at all. A single choice is its own possible
// and certain merges, stored with no map and no sort. Several are
// ordered canonically on the shard's own members, the order the
// instance's maximal solutions compare them in (see witnesses).
func (sh *Shard) record(choices [][]eqrel.Pair) {
	sh.maximal, sh.solvable = choices, len(choices) > 0
	if len(choices) == 1 {
		sh.possible, sh.certain = choices[0], choices[0]
		return
	}
	// A choice holds each pair once, so a pair every choice counts is
	// certain.
	count := make(map[eqrel.Pair]int)
	for _, choice := range choices {
		for _, p := range choice {
			count[p]++
		}
	}
	for p, n := range count {
		sh.possible = append(sh.possible, p)
		if n == len(choices) {
			sh.certain = append(sh.certain, p)
		}
	}
	sortPairsInPlace(sh.possible)
	sortPairsInPlace(sh.certain)
	sort.Slice(choices, func(i, j int) bool {
		return memberKey(sh.Members, choices[i]) < memberKey(sh.Members, choices[j])
	})
}

func sortPairsInPlace(ps []eqrel.Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
}

func constantFree(atoms []cq.Atom) bool {
	for _, a := range atoms {
		for _, t := range a.Args {
			if !t.IsVar {
				return false
			}
		}
	}
	return true
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

// --- results ----------------------------------------------------------

// MaximalSolutionsCtx composes the per-shard maximal solutions into the
// instance's maximal solutions: independence of shards makes the global
// set the product of the per-shard sets. The product size is capped by
// Options.MaxStates; exceeding it returns ErrBudget.
func (s *EpochSnapshot) MaximalSolutionsCtx(ctx context.Context) ([]*eqrel.Partition, error) {
	if err := s.resolve(ctx); err != nil {
		return nil, err
	}
	if s.unsolvable {
		return nil, nil
	}
	sols := []*eqrel.Partition{s.eng.Identity()}
	for _, sh := range s.shards {
		next := make([]*eqrel.Partition, 0, len(sols)*len(sh.maximal))
		for _, base := range sols {
			for j, pairs := range sh.maximal {
				if len(next) >= s.eng.sess.opts.MaxStates {
					return nil, fmt.Errorf("core: %w: maximal-solution product exceeds MaxStates=%d",
						ErrBudget, s.eng.sess.opts.MaxStates)
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
func (s *EpochSnapshot) CertainMergesCtx(ctx context.Context) ([]eqrel.Pair, error) {
	if err := s.resolve(ctx); err != nil {
		return nil, err
	}
	if s.unsolvable {
		return nil, nil
	}
	set := make(map[eqrel.Pair]bool)
	for _, sh := range s.shards {
		for _, p := range sh.certain {
			set[p] = true
		}
	}
	return sortedPairs(set), nil
}

// PossibleMergesCtx is the union of the shards' possible merges.
func (s *EpochSnapshot) PossibleMergesCtx(ctx context.Context) ([]eqrel.Pair, error) {
	if err := s.resolve(ctx); err != nil {
		return nil, err
	}
	set := make(map[eqrel.Pair]bool)
	if !s.unsolvable {
		for _, sh := range s.shards {
			for _, p := range sh.possible {
				set[p] = true
			}
		}
	}
	// No solutions means no possible merges: like the monolithic
	// enumeration, this is the empty set, not nil.
	return sortedPairs(set), nil
}

// ExistenceCtx reports whether a solution exists. Two cases are decided
// without resolving, by the monolithic engine: a restricted
// specification by Theorem 8's hard-closure check, whose witness is that
// hard closure, and an instance solved whole (see fallsBack) by the
// monolithic search, which stops at its first solution. Otherwise the
// witness is the first maximal solution in canonical order: each
// shard's first maximal solution, composed.
func (s *EpochSnapshot) ExistenceCtx(ctx context.Context) (*eqrel.Partition, bool, error) {
	if s.eng.sess.spec.IsRestricted() {
		return s.eng.Fork().ExistenceCtx(ctx)
	}
	mono, err := s.fallsBack(ctx)
	if err != nil {
		return nil, false, err
	}
	if mono {
		return s.eng.Fork().ExistenceCtx(ctx)
	}
	if err := s.resolve(ctx); err != nil {
		return nil, false, err
	}
	if s.unsolvable {
		return nil, false, nil
	}
	return s.composed(-1, 0), true, nil
}

// CertainAnswersCtx returns the certain answers to q over the snapshot's
// maximal solutions.
func (s *EpochSnapshot) CertainAnswersCtx(ctx context.Context, q *cq.CQ) ([][]db.Const, error) {
	maximal, err := s.MaximalSolutionsCtx(ctx)
	if err != nil {
		return nil, err
	}
	return s.eng.Fork().answers(q, maximal, true)
}

// PossibleAnswersCtx returns the possible answers to q over the
// snapshot's maximal solutions.
func (s *EpochSnapshot) PossibleAnswersCtx(ctx context.Context, q *cq.CQ) ([][]db.Const, error) {
	maximal, err := s.MaximalSolutionsCtx(ctx)
	if err != nil {
		return nil, err
	}
	return s.eng.Fork().answers(q, maximal, false)
}

// ExplainMergesCtx explains each pair across the snapshot's maximal
// solutions. It picks each witness and counterexample shard by shard,
// so it never composes the product of the shards' maximal solutions.
func (s *EpochSnapshot) ExplainMergesCtx(ctx context.Context, pairs []eqrel.Pair) ([]*MergeExplanation, error) {
	if err := irreflexive(pairs); err != nil {
		return nil, err
	}
	with, without, err := s.witnesses(ctx, pairs)
	if err != nil {
		return nil, err
	}
	return s.eng.Fork().explainMerges(pairs, with, without)
}

// composed returns the maximal solution taking choice k in shard i and
// every other shard's first choice; i = -1 takes the first choice
// everywhere.
func (s *EpochSnapshot) composed(i, k int) *eqrel.Partition {
	E := s.eng.Identity()
	for j, sh := range s.shards {
		if j == i {
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
// first choice, which Shard.record puts at index 0.
func (s *EpochSnapshot) witnesses(ctx context.Context, pairs []eqrel.Pair) (with, without []*eqrel.Partition, err error) {
	if err := s.resolve(ctx); err != nil {
		return nil, nil, err
	}
	with = make([]*eqrel.Partition, len(pairs))
	without = make([]*eqrel.Partition, len(pairs))
	if s.unsolvable {
		return with, without, nil
	}
	shardOf := make(map[db.Const]int)
	for i, sh := range s.shards {
		for _, c := range sh.Members {
			shardOf[c] = i
		}
	}
	// compose builds each named solution once, so pairs sharing a
	// witness share its Partition (and its replay).
	cache := make(map[[2]int]*eqrel.Partition)
	compose := func(i, k int) *eqrel.Partition {
		if k == 0 {
			i = -1
		}
		key := [2]int{i, k}
		if cache[key] == nil {
			cache[key] = s.composed(i, k)
		}
		return cache[key]
	}
	for pi, p := range pairs {
		i, ok := shardOf[p.A]
		if j, okB := shardOf[p.B]; !ok || !okB || i != j {
			// No shard merges the pair: every maximal solution excludes it.
			without[pi] = compose(-1, 0)
			continue
		}
		for k, ps := range s.shards[i].maximal {
			if !containsPair(ps, p) {
				if without[pi] == nil {
					without[pi] = compose(i, k)
				}
			} else if with[pi] == nil {
				with[pi] = compose(i, k)
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
