package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/db"
	"repro/internal/eqrel"
)

// explain.go implements the explanation facilities sketched in
// Section 7 of the paper beyond Definition-4 justifications: explaining
// the status of a pair across the whole space of maximal solutions —
// why a pair is certain, only possible, or impossible.

// MergeStatus classifies a pair against MaxSol(D, Σ).
type MergeStatus int

// Merge statuses.
const (
	// Certain: the pair is in every maximal solution (and one exists).
	Certain MergeStatus = iota
	// PossibleOnly: in some but not all maximal solutions.
	PossibleOnly
	// Impossible: in no solution at all.
	Impossible
)

func (s MergeStatus) String() string {
	switch s {
	case Certain:
		return "certain"
	case PossibleOnly:
		return "possible"
	default:
		return "impossible"
	}
}

// MergeExplanation explains the status of a pair.
type MergeExplanation struct {
	Pair   eqrel.Pair
	Status MergeStatus

	// Certain and PossibleOnly: Witness is the first maximal solution (in
	// canonical order) containing the pair, and Justification derives
	// the pair in it.
	Witness       *eqrel.Partition
	Justification *Justification

	// PossibleOnly: CounterExample is the first maximal solution that
	// excludes the pair.
	CounterExample *eqrel.Partition

	// Impossible, case 1: no sequence of rule applications can ever
	// derive the pair, even ignoring all denial constraints.
	NeverDerivable bool
	// Impossible, case 2 (NeverDerivable false): the pair is derivable,
	// but every way of deriving it violates constraints. BlockedBy
	// lists the denial constraints violated on the full closure
	// containing the pair — the canonical obstruction witness.
	BlockedBy []string
}

// Format renders the explanation with constant names.
func (x *MergeExplanation) Format(in *db.Interner) string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%s,%s) is %s", in.Name(x.Pair.A), in.Name(x.Pair.B), x.Status)
	switch x.Status {
	case Certain:
		b.WriteString(": it holds in every maximal solution; one derivation:\n")
		b.WriteString(x.Justification.Format(in))
	case PossibleOnly:
		fmt.Fprintf(&b, ":\n  holds in   %s\n  fails in   %s\n",
			x.Witness.Format(in), x.CounterExample.Format(in))
	default:
		if x.NeverDerivable {
			b.WriteString(": no sequence of rule applications can derive it.\n")
		} else {
			fmt.Fprintf(&b, ": it is derivable, but only in states violating %s.\n",
				strings.Join(x.BlockedBy, ", "))
		}
	}
	return b.String()
}

// ExplainMergeCtx computes the status of the pair (a, b) together with
// supporting evidence. It enumerates the maximal solutions, so it has
// the complexity of CertMerge (Π^p_2 in general).
func (e *Engine) ExplainMergeCtx(ctx context.Context, a, b db.Const) (*MergeExplanation, error) {
	pairs := []eqrel.Pair{eqrel.MakePair(a, b)}
	if err := irreflexive(pairs); err != nil {
		return nil, err
	}
	with, without, err := e.witnesses(ctx, pairs)
	if err != nil {
		return nil, err
	}
	xs, err := e.explainMerges(pairs, with, without)
	if err != nil {
		return nil, err
	}
	return xs[0], nil
}

// irreflexive rejects a reflexive pair before anything is resolved to
// explain it.
func irreflexive(pairs []eqrel.Pair) error {
	for _, p := range pairs {
		if p.A == p.B {
			return fmt.Errorf("core: reflexive pairs are trivially certain")
		}
	}
	return nil
}

// explainMerges explains each pair given its witnesses: with[i] and
// without[i] are the first maximal solutions in canonical order that
// contain and exclude pairs[i], nil where none does. The evidence is
// computed on e; pairs justified in the same witness share one replay
// of it.
func (e *Engine) explainMerges(pairs []eqrel.Pair, with, without []*eqrel.Partition) ([]*MergeExplanation, error) {
	var err error
	replays := make(map[*eqrel.Partition]*derivation)
	var closure *eqrel.Partition
	xs := make([]*MergeExplanation, len(pairs))
	for i, p := range pairs {
		x := &MergeExplanation{Pair: p, Status: Impossible, Witness: with[i]}
		xs[i] = x
		if W := x.Witness; W != nil {
			x.Status = PossibleOnly
			if x.CounterExample = without[i]; x.CounterExample == nil {
				x.Status = Certain
			}
			if replays[W] == nil {
				if replays[W], err = e.replay(W); err != nil {
					return nil, err
				}
			}
			if x.Justification, err = e.justifyIn(replays[W], p); err != nil {
				return nil, err
			}
			continue
		}
		// Distinguish "never derivable" from "derivable but blocked":
		// close under all rules ignoring denial constraints.
		if closure == nil {
			closure = e.Identity()
			e.AllClose(closure)
		}
		if !closure.Same(p.A, p.B) {
			x.NeverDerivable = true
		} else {
			x.BlockedBy = e.ViolatedDenials(closure)
		}
	}
	return xs, nil
}
