// Package limits provides the resource-budget types shared by the
// native search engine (internal/core) and the ASP pipeline
// (internal/asp, internal/encode): sentinel errors every exhausted
// budget or cancelled computation matches via errors.Is, typed errors
// carrying the exhausted resource, and a Budget tracker threaded
// through encode → ground → sat → stable.
//
// The decision problems LACE poses are NP- or Π^p_2-hard (Table 1 of
// the paper), so every long-running phase must be interruptible: a
// production system serving untrusted specifications cannot let a
// pathological instance ground or solve forever. Budgets bound the
// three quantities that actually grow without bound — ground rule
// instances, CNF clauses and SAT decisions — and carry a
// context.Context for wall-clock deadlines and cancellation.
package limits

import (
	"context"
	"errors"
	"fmt"
)

// ErrBudget is the sentinel matched (via errors.Is) by every exhausted
// resource budget, whatever the resource. Results produced before the
// budget tripped are valid but incomplete.
var ErrBudget = errors.New("resource budget exceeded")

// ErrCanceled is the sentinel matched (via errors.Is) by every error
// caused by context cancellation or an expired deadline.
var ErrCanceled = errors.New("computation canceled")

// BudgetError reports which resource budget was exhausted. It matches
// ErrBudget via errors.Is.
type BudgetError struct {
	Resource string // e.g. "ground rules", "clauses", "decisions", "search states"
	Limit    int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("%s budget exceeded (limit %d)", e.Resource, e.Limit)
}

// Is makes every BudgetError match the ErrBudget sentinel.
func (e *BudgetError) Is(target error) bool { return target == ErrBudget }

// CancelError wraps a context error (context.Canceled or
// context.DeadlineExceeded) so callers can match either the ErrCanceled
// sentinel or the underlying context error.
type CancelError struct{ Cause error }

func (e *CancelError) Error() string { return "canceled: " + e.Cause.Error() }

// Is makes every CancelError match the ErrCanceled sentinel.
func (e *CancelError) Is(target error) bool { return target == ErrCanceled }

// Unwrap exposes the context error for errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded).
func (e *CancelError) Unwrap() error { return e.Cause }

// Wrap returns err as a CancelError when it is a context error, err
// unchanged otherwise. Nil maps to nil.
func Wrap(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &CancelError{Cause: err}
	}
	return err
}

// IsStop reports whether err is a resource-budget or cancellation stop
// — the errors a caller should treat as "the run was cut short" rather
// than "the input or system is broken".
func IsStop(err error) bool {
	return errors.Is(err, ErrBudget) || errors.Is(err, ErrCanceled)
}

// Limits bounds the resources of one ASP pipeline run. The zero value
// of any field means "unlimited"; the zero Limits bounds nothing.
type Limits struct {
	// MaxGroundRules bounds the ground rule instances the grounder may
	// emit (after deduplication).
	MaxGroundRules int
	// MaxClauses bounds the CNF clauses added to the SAT solver —
	// completion clauses, loop formulas and blocking clauses combined.
	MaxClauses int
	// MaxDecisions bounds SAT decision points, cumulative across Solve
	// calls on the same solver.
	MaxDecisions int64
}

// Unlimited reports whether the limits bound nothing.
func (l Limits) Unlimited() bool {
	return l.MaxGroundRules <= 0 && l.MaxClauses <= 0 && l.MaxDecisions <= 0
}

// pollEvery is how many cheap charge operations pass between context
// polls: Context.Err takes a lock on cancellable contexts, which the
// SAT decision loop must not pay per decision.
const pollEvery = 256

// Budget tracks consumption against Limits under a context. A nil
// *Budget is valid and unlimited — every method is a nil-safe no-op —
// so unbudgeted callers pass nil without branching. A Budget is owned
// by one goroutine (the ASP pipeline is single-threaded). Once any
// budget trips or the context is done, the error latches: every later
// check returns the same typed error, so a pipeline stage that ignores
// a charge's return value is still stopped by the next stage's check.
type Budget struct {
	ctx         context.Context
	lim         Limits
	groundRules int
	clauses     int
	decisions   int64
	conflicts   int64
	sincePoll   int
	err         error // latched *BudgetError or *CancelError
}

// NewBudget returns a budget enforcing lim under ctx. A nil ctx means
// context.Background() (no cancellation or deadline).
func NewBudget(ctx context.Context, lim Limits) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Budget{ctx: ctx, lim: lim}
}

// Context returns the budget's context (context.Background for a nil
// budget).
func (b *Budget) Context() context.Context {
	if b == nil {
		return context.Background()
	}
	return b.ctx
}

// Err polls the context and returns the latched error, if any.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	if b.err == nil {
		if cerr := b.ctx.Err(); cerr != nil {
			b.err = &CancelError{Cause: cerr}
		}
	}
	return b.err
}

// Tick is a cheap cooperative cancellation point for hot loops that do
// not charge a specific resource (e.g. join enumeration inside the
// grounder): it polls the context only every pollEvery calls.
func (b *Budget) Tick() error {
	if b == nil {
		return nil
	}
	if b.err != nil {
		return b.err
	}
	b.sincePoll++
	if b.sincePoll >= pollEvery {
		b.sincePoll = 0
		return b.Err()
	}
	return nil
}

// Clauses returns how many clauses have been charged.
func (b *Budget) Clauses() int {
	if b == nil {
		return 0
	}
	return b.clauses
}

// Decisions returns how many decisions have been charged.
func (b *Budget) Decisions() int64 {
	if b == nil {
		return 0
	}
	return b.decisions
}

// AddGroundRules charges n ground rules and polls the context.
func (b *Budget) AddGroundRules(n int) error {
	if b == nil {
		return nil
	}
	b.groundRules += n
	if b.lim.MaxGroundRules > 0 && b.groundRules > b.lim.MaxGroundRules && b.err == nil {
		b.err = &BudgetError{Resource: "ground rules", Limit: int64(b.lim.MaxGroundRules)}
	}
	if b.err != nil {
		return b.err
	}
	return b.Tick()
}

// AddClauses charges n CNF clauses. The return value may be ignored by
// callers that cannot propagate it (clause addition has no error path);
// the error latches and surfaces at the next Err or AddDecision check.
func (b *Budget) AddClauses(n int) error {
	if b == nil {
		return nil
	}
	b.clauses += n
	if b.lim.MaxClauses > 0 && b.clauses > b.lim.MaxClauses && b.err == nil {
		b.err = &BudgetError{Resource: "clauses", Limit: int64(b.lim.MaxClauses)}
	}
	return b.err
}

// AddDecision charges one SAT decision, polling the context every
// pollEvery decisions so the hot loop stays cheap.
func (b *Budget) AddDecision() error {
	if b == nil {
		return nil
	}
	if b.err != nil {
		return b.err
	}
	b.decisions++
	if b.lim.MaxDecisions > 0 && b.decisions > b.lim.MaxDecisions {
		b.err = &BudgetError{Resource: "decisions", Limit: b.lim.MaxDecisions}
		return b.err
	}
	return b.Tick()
}

// Conflicts returns how many SAT conflicts have been recorded.
func (b *Budget) Conflicts() int64 {
	if b == nil {
		return 0
	}
	return b.conflicts
}

// AddConflict records one SAT conflict and polls the context on every
// call. Conflicts are not a budgeted resource, but a CDCL run can be
// dominated by conflict analysis for long stretches between decision
// points, which the decision loop's every-pollEvery polling would let
// blow straight through a deadline; conflicts are rare next to
// propagations, so an unconditional poll here is cheap and bounds the
// overrun to one conflict's worth of work.
func (b *Budget) AddConflict() error {
	if b == nil {
		return nil
	}
	b.conflicts++
	if b.err != nil {
		return b.err
	}
	return b.Err()
}
