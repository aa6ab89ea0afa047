package core

// carry.go computes an epoch's lattice top from its predecessor's. Every
// LACE solution lies below the top T of the candidate lattice, the
// closure of the identity under every merge rule, and an epoch changes
// the database by one batch. So instead of closing the identity over
// the whole database again, an epoch takes its predecessor's T and D_T,
// splits back to singletons the T-classes its retractions may have
// broken, and continues the closure from there, seeded by the tuples
// the batch changed. The result is exactly the top a fresh closure
// computes (DESIGN.md §12 has the argument; TestCarriedTopMatchesFresh
// and FuzzCarriedTop check it).

import (
	"context"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/limits"
)

// latticeTop is an instance's lattice top: T, its induced database D_T,
// whether (D, T) satisfies Δ, and whether a member of a nontrivial
// T-class sits at a similarity position (simPositionsClash), the one
// configuration neither the coupling analysis nor a carried closure can
// follow. Without a clash it also holds the coupling of D_T's relaxed
// matches that an inconsistent top's stitch reads: always when T is
// inconsistent, and whenever it could be carried from the
// predecessor's, so that a chain of epochs computes it in full once. T
// is flattened and, over a frozen database, D_T is frozen; nothing here
// changes after the top phase, so a successor epoch reads it while this
// epoch's stitch runs.
type latticeTop struct {
	T          *eqrel.Partition
	ind        *db.Database
	consistent bool
	clash      bool
	coupling   *coupling
}

// lineage links an epoch to its predecessor until its own
// top is computed: the predecessor, and the batch between the two as
// tuples of constant ids (both epochs share every id the predecessor
// knew).
type lineage struct {
	prev            *EpochSnapshot
	retract, insert []db.Fact
}

// maxPendingTops bounds a chain of epochs whose tops are not computed
// yet, the latest included. An epoch whose predecessors were never
// resolved would otherwise pin every one of them until something
// resolves it; past the bound an epoch starts from the identity and
// pins nothing.
const maxPendingTops = 16

// rep maps a constant of this epoch or a later one through T: to its
// representative when T knows it, to itself when a later batch interned
// it.
func (t *latticeTop) rep(x db.Const) db.Const {
	if x >= 0 && int(x) < t.T.N() {
		return t.T.Rep(x)
	}
	return x
}

// imageRows lists, by relation, the rows of ind holding the image under
// rep of each of the facts that has one.
func imageRows(ind *db.Database, rep func(db.Const) db.Const, facts []db.Fact) map[string][]int32 {
	rows := make(map[string][]int32)
	img := make([]db.Const, 0, 8)
	for _, f := range facts {
		t := ind.Table(f.Rel)
		if t == nil {
			continue
		}
		img = img[:0]
		for _, x := range f.Args {
			img = append(img, rep(x))
		}
		if p := t.Position(img); p >= 0 {
			rows[f.Rel] = append(rows[f.Rel], int32(p))
		}
	}
	return rows
}

// imageDelta is the delta of ind over the rows holding a constant of
// consts plus the given rows, those of a batch's images (imageRows).
func imageDelta(ind *db.Database, consts []db.Const, rows map[string][]int32) *cq.Delta {
	delta := cq.NewDelta(ind, consts)
	for rel, rs := range rows {
		delta.Touch(ind, rel, rs)
	}
	return delta
}

// finishTop records a computed top, deciding its similarity clash and
// making T and D_T safe for concurrent readers.
func (s *EpochSnapshot) finishTop(T *eqrel.Partition, ind *db.Database, consistent bool) *latticeTop {
	T.Flatten()
	if s.eng.sess.d.Frozen() {
		ind.Freeze()
	}
	clash := s.simPositionsClash(func(c db.Const) bool { return T.ClassSize(c) > 1 })
	return &latticeTop{T: T, ind: ind, consistent: consistent, clash: clash}
}

// carryTop computes this epoch's top from prev, its predecessor's, and
// the batch between them. It returns nil (and no error) when the
// result would clash at a similarity position, where only a fresh
// closure decides the top; reclosed counts the constants of the
// T-classes the retractions split.
//
//  1. Retractions collect S, the T-classes to re-close: the classes of
//     the retracted tuples' constants, grown to a fixpoint by the rule
//     matches on D_T that use the image of a retracted tuple or a tuple
//     holding a nontrivial S-class, each of which adds its head class.
//     A class outside S keeps every pair (first-lost-pair induction,
//     DESIGN.md §12).
//  2. L is T with S's nontrivial classes split to singletons, and grows
//     singletons for names the batch interned. D_L is derived from D_T
//     by dropping the rows of S-classes and of retracted tuples, and
//     adding the L-images of the base tuples holding an S member and of
//     the inserted tuples.
//  3. The closure continues from L over D_L, seeded by the rows holding
//     an S member and the inserted tuples' images: every match whose
//     head pair L lacks uses one of them.
//  4. When prev's top carries a coupling, so does this one (see
//     carryCoupling), and it decides consistency: Δ is violated on D_T
//     exactly by the relaxed denial matches whose dropped inequalities
//     all hold. Otherwise, when prev's T satisfied Δ, only the denial
//     matches that use a tuple changed since D_T can be violated, so Δ
//     is checked in delta mode over the changed representatives.
func (s *EpochSnapshot) carryTop(ctx context.Context, prev *latticeTop, retract, insert []db.Fact) (top *latticeTop, reclosed int, err error) {
	c := s.eng.Context
	d := c.sess.d
	Tp, indP := prev.T, prev.ind
	domP := Tp.N()
	repP := prev.rep

	// 1. The classes to re-close. Rule bodies carry no inequality atom,
	// so the session's rule plans are the stitch's relaxed rule plans up
	// to the head, and only the head class is read here.
	inS := make([]bool, domP) // by T-representative
	var frontier, stale []db.Const
	mark := func(r db.Const) {
		if !inS[r] {
			inS[r] = true
			if Tp.ClassSize(r) > 1 {
				frontier = append(frontier, r)
				stale = append(stale, r)
			}
		}
	}
	for _, f := range retract {
		for _, x := range f.Args {
			mark(repP(x))
		}
	}
	retracted := imageRows(indP, repP, retract)
	delta := imageDelta(indP, frontier, retracted)
	addHead := func(ans []db.Const) bool {
		mark(repP(ans[0]))
		mark(repP(ans[1]))
		return true
	}
	for len(retract) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, 0, limits.Wrap(err)
		}
		frontier = frontier[:0:0]
		for _, r := range c.sess.mergeRules {
			c.plan(r).Run(indP, cq.RunSpec{Rec: c.rec, Rep: repP, Delta: delta}, addHead)
		}
		if len(frontier) == 0 {
			break
		}
		delta = cq.NewDelta(indP, frontier)
	}

	// 2. L and its induced database.
	dom := c.sess.dom
	L := eqrel.New(dom)
	var members []db.Const
	for x := 0; x < domP; x++ {
		r := Tp.Rep(db.Const(x))
		switch {
		case !inS[r]:
			if r != db.Const(x) {
				L.Union(r, db.Const(x))
			}
		case Tp.ClassSize(r) > 1:
			members = append(members, db.Const(x))
		}
	}
	extra := make(map[string][][]db.Const)
	if len(members) > 0 {
		for _, rel := range d.Schema().Relations() {
			t := d.Table(rel.Name)
			if t == nil {
				continue
			}
			for _, row := range t.RowsHolding(members) {
				extra[rel.Name] = append(extra[rel.Name], t.Tuples()[row])
			}
		}
	}
	for _, f := range insert {
		extra[f.Rel] = append(extra[f.Rel], f.Args)
	}
	ind := db.Rebase(d, indP, stale, retracted, extra, L.Rep)

	// 3. The continued closure.
	seed := imageDelta(ind, members, imageRows(ind, L.Rep, insert))
	T := L // the closure grows L into the top
	ind, _, err = c.closeFrom(ctx, T, ind, c.sess.mergeRules, nil, seed)
	if err != nil {
		return nil, 0, err
	}

	// 4. The coupling, carried when prev's was, and consistency.
	top = s.finishTop(T, ind, false)
	if top.clash {
		return nil, 0, nil
	}
	if prev.coupling != nil {
		if top.coupling, err = s.carryCoupling(ctx, prev, top, retract, insert); err != nil {
			return nil, 0, err
		}
	}
	switch {
	case top.coupling != nil:
		top.consistent = top.coupling.consistent()
	case prev.consistent:
		var changed []db.Const
		for x := 0; x < domP; x++ {
			if r := T.Rep(db.Const(x)); r != Tp.Rep(db.Const(x)) {
				changed = append(changed, r)
			}
		}
		touched := imageDelta(ind, changed, imageRows(ind, T.Rep, insert))
		top.consistent = c.satisfiesDenialsDelta(T, ind, touched)
	default:
		top.consistent = c.satisfiesDenials(T, ind)
	}
	return top, len(members), nil
}

// carryCoupling computes top's coupling from prev's, its predecessor's,
// re-recording only the classes whose anchored matches the batch can
// have changed. It returns nil (and no error) when a constant of a
// rule or denial body is mergeable or changed class, where a match's
// anchor need not occur in its tuples; the top phase then couples in
// full.
//
// A relaxed match is fixed by its tuples, so the matches of D_T and of
// the predecessor's D_T' differ only in those using a candidate tuple:
// one holding a constant whose class differs between T' and T (the set
// X, a union of whole classes of both), or the image of a batch tuple.
// Every tuple of one induced database but not the other is a
// candidate, and a tuple of both is a candidate in both, since a
// constant of X or a batch image is one in either. A match without
// candidates has the same anchor class and record in both epochs. So
// the trivial count moves by the candidate matches of D_T less those
// of D_T', and the classes to re-record are those of X and the anchor
// classes of candidate matches on either side: their records are
// rebuilt from every match holding their representative, and every
// other class keeps its predecessor's record.
func (s *EpochSnapshot) carryCoupling(ctx context.Context, prev, top *latticeTop, retract, insert []db.Fact) (*coupling, error) {
	Tp, indP, T, ind := prev.T, prev.ind, top.T, top.ind
	domP, dom := Tp.N(), T.N()
	repP := prev.rep
	mergeableP := func(c db.Const) bool { return c >= 0 && int(c) < domP && Tp.ClassSize(c) > 1 }
	mergeable := func(c db.Const) bool { return T.ClassSize(c) > 1 }

	// X, from the constants whose representative or class size moved:
	// with each, its classes in both partitions changed entirely.
	flagP := make(map[db.Const]bool)
	flag := make(map[db.Const]bool)
	for x := 0; x < dom; x++ {
		c := db.Const(x)
		switch {
		case x >= domP:
			if T.ClassSize(c) > 1 {
				flag[T.Rep(c)] = true
			}
		case T.Rep(c) != Tp.Rep(c) || T.ClassSize(c) != Tp.ClassSize(c):
			flagP[Tp.Rep(c)] = true
			flag[T.Rep(c)] = true
		}
	}
	inX := make([]bool, dom)
	var repsP, reps []db.Const // X's representatives in T' and in T
	for x := 0; x < dom; x++ {
		c := db.Const(x)
		if (x < domP && flagP[Tp.Rep(c)]) || flag[T.Rep(c)] {
			inX[x] = true
		}
	}
	for x := 0; x < dom; x++ {
		c := db.Const(x)
		if !inX[x] {
			continue
		}
		if x < domP && Tp.Rep(c) == c {
			repsP = append(repsP, c)
		}
		if T.Rep(c) == c {
			reps = append(reps, c)
		}
	}

	plans, err := s.eng.sess.couplingPlans()
	if err != nil {
		return nil, err
	}
	for _, cp := range plans {
		for _, c := range cp.consts {
			if mergeable(c) || (int(c) < dom && inX[c]) {
				return nil, nil
			}
		}
	}
	batch := append(append([]db.Fact(nil), retract...), insert...)

	trivial := prev.coupling.trivial
	dirty := make(map[db.Const]bool)
	for _, r := range reps {
		if T.ClassSize(r) > 1 {
			dirty[r] = true
		}
	}
	// The candidate matches of D_T' leave; those of D_T arrive.
	if err := s.runCoupling(ctx, indP, Tp, repP, mergeableP, imageDelta(indP, repsP, imageRows(indP, repP, batch)), func(m couplingMatch, _, _ []db.Const) {
		switch {
		case m.anchor < 0:
			if m.violated {
				trivial--
			}
		case !inX[Tp.Rep(m.anchor)]:
			dirty[Tp.Rep(m.anchor)] = true
		}
	}); err != nil {
		return nil, err
	}
	if err := s.runCoupling(ctx, ind, T, T.Rep, mergeable, imageDelta(ind, reps, imageRows(ind, T.Rep, batch)), func(m couplingMatch, _, _ []db.Const) {
		switch {
		case m.anchor < 0:
			if m.violated {
				trivial++
			}
		default:
			dirty[T.Rep(m.anchor)] = true
		}
	}); err != nil {
		return nil, err
	}

	// Re-record the dirty classes; every other class keeps its record.
	cpl := &coupling{classes: make(map[db.Const]*classCoupling, len(prev.coupling.classes)), trivial: trivial}
	for r, cc := range prev.coupling.classes {
		if !inX[r] && !dirty[r] {
			cpl.classes[r] = cc
		}
	}
	rerecord := make([]db.Const, 0, len(dirty))
	for r := range dirty {
		rerecord = append(rerecord, r)
	}
	rb := newCouplingBuilder()
	if err := s.runCoupling(ctx, ind, T, T.Rep, mergeable, cq.NewDelta(ind, rerecord), func(m couplingMatch, vals, consts []db.Const) {
		if m.anchor >= 0 && dirty[T.Rep(m.anchor)] {
			rb.record(m, vals, consts, T, mergeable)
		}
	}); err != nil {
		return nil, err
	}
	rb.finish(cpl.classes)
	return cpl, nil
}
