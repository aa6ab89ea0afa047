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

	// Certain: Justification derives the pair in some maximal solution.
	Justification *Justification

	// PossibleOnly: Witness is a maximal solution containing the pair,
	// CounterExample one that excludes it.
	Witness, CounterExample *eqrel.Partition

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
	if a == b {
		return nil, fmt.Errorf("core: reflexive pairs are trivially certain")
	}
	x := &MergeExplanation{Pair: eqrel.MakePair(a, b)}
	maximal, err := e.MaximalSolutionsCtx(ctx)
	if err != nil {
		return nil, err
	}
	var with, without *eqrel.Partition
	for _, m := range maximal {
		if m.Same(a, b) {
			if with == nil {
				with = m
			}
		} else if without == nil {
			without = m
		}
	}
	switch {
	case with != nil && without == nil:
		x.Status = Certain
		j, err := e.Justify(with, a, b)
		if err != nil {
			return nil, err
		}
		x.Justification = j
		return x, nil
	case with != nil:
		x.Status = PossibleOnly
		x.Witness = with
		x.CounterExample = without
		return x, nil
	}
	x.Status = Impossible
	// Distinguish "never derivable" from "derivable but blocked": close
	// under all rules ignoring denial constraints.
	closure := e.Identity()
	if err := e.AllClose(closure); err != nil {
		return nil, err
	}
	if !closure.Same(a, b) {
		x.NeverDerivable = true
		return x, nil
	}
	viol, err := e.ViolatedDenials(closure)
	if err != nil {
		return nil, err
	}
	x.BlockedBy = viol
	return x, nil
}
