package core

import (
	"context"
	"sync"

	"repro/internal/eqrel"
	"repro/internal/limits"
	"repro/internal/obs"
)

// walker explores the candidate-solution lattice from one root state.
// States are hard-closed candidate solutions, deduplicated by their
// canonical partition key. Children extend a state by one soft-active
// pair followed by hard closure; by the monotonicity of activity (rule
// bodies are negation-free) every solution is reachable this way.
//
// With one worker the walk runs on the caller's goroutine and Context
// and processes every child inline, depth-first in active-pair order:
// the visit order SolutionsCtx documents. With more, children go to a
// bounded work queue served by one goroutine and one Context per
// worker, and a worker processes a child inline when the queue is
// full. Either way the state budget is shared, the first error cancels
// the walk, and visits are serialized under a mutex, so visitor
// callbacks never run concurrently and need no locking of their own;
// with several workers their order depends on scheduling.
type walker struct {
	ctx    context.Context
	cancel context.CancelFunc
	prune  bool
	budget int

	// tasks carries states to the workers; nil with one worker. A
	// queued state's partition is owned by the consuming worker; its
	// induced database is frozen before the hand-off, so any number of
	// workers may read it (and derive children from it) concurrently.
	tasks chan state
	open  sync.WaitGroup // tasks queued or in flight

	// visited doubles as the dedup set and the state counter.
	visitedMu sync.Mutex
	visited   map[string]struct{}

	visitMu   sync.Mutex
	visit     func(E *eqrel.Partition) bool
	solutions int
	stopped   bool // visitor requested stop; not an error

	errMu sync.Mutex
	err   error
}

// walk enumerates the solutions reachable from the hard closure of
// start over workers workers, calling visit for each (the partition is
// live; clone to retain) until visit returns true. See walker for the
// visit order. The error is ErrBudget when the state budget was
// exhausted, wraps ctx.Err() when the caller cancelled, and is nil when
// the space was fully explored or the visitor stopped the walk.
func (e *Engine) walk(ctx context.Context, start *eqrel.Partition, workers int, visit func(E *eqrel.Partition) bool) error {
	if workers > 1 {
		// The base database is shared read-only by every worker from
		// here on: freeze it (eager indexes, inserts rejected) once per
		// session.
		e.sess.freezeShared()
		e.rec.Gauge(obs.CoreSearchWorkers, int64(workers))
	}
	sp := e.rec.Start(obs.SpanCoreSearch)
	root := start.Clone()
	e.hardClose(root)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	w := &walker{
		ctx:     runCtx,
		cancel:  cancel,
		prune:   e.sess.spec.IsRestricted(),
		budget:  e.sess.opts.MaxStates,
		visited: make(map[string]struct{}),
		visit:   visit,
	}
	if workers > 1 {
		w.fanOut(e, e.stateOf(root), workers)
	} else {
		w.process(e.Context, e.stateOf(root))
	}

	sp.AttrInt("solutions", int64(w.solutions)).AttrInt("states", int64(len(w.visited))).End()
	if w.err != nil {
		return w.err
	}
	if !w.stopped && ctx.Err() != nil {
		// Wrapped so callers can match limits.ErrCanceled uniformly
		// across the native search and the ASP pipeline;
		// errors.Is(err, context.Canceled) still holds via Unwrap.
		return limits.Wrap(ctx.Err())
	}
	return nil
}

// fanOut runs the walk from root on workers goroutines, each with its
// own evaluation Context (a slice of e's induced-DB cache) and
// buffering recorder, and returns once every task is done.
func (w *walker) fanOut(e *Engine, root state, workers int) {
	root.ind.Freeze()
	// 64 queued states per worker keep every worker fed; past that a
	// worker recurses inline, which bounds the queued induced databases.
	w.tasks = make(chan state, workers*64)
	w.open.Add(1)
	w.tasks <- root

	var wg sync.WaitGroup
	locals := make([]*obs.Local, workers)
	for i := range locals {
		locals[i] = obs.NewLocal(e.rec)
		cx := e.sess.newContext(e.cache.Cap()/workers, locals[i])
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range w.tasks {
				w.process(cx, t)
				w.open.Done()
			}
		}()
	}
	// Close the queue once every submitted task has been processed;
	// workers then drain out of their range loops.
	go func() {
		w.open.Wait()
		close(w.tasks)
	}()
	wg.Wait()
	// Flush the worker buffers serially from this goroutine: e.rec may
	// itself be an obs.Local (a sharded solve running an inner parallel
	// walk buffers through its shard worker's Local), so flushes must
	// not run concurrently.
	for _, l := range locals {
		l.Flush()
	}
}

// fail records the first error and cancels the walk; queued tasks
// drain without doing work.
func (w *walker) fail(err error) {
	w.errMu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.errMu.Unlock()
	w.cancel()
}

// submit hands a child to the work queue, or processes it inline when
// there is no queue or the queue is full. The bounded queue plus inline
// fallback cannot deadlock: a send either succeeds immediately or the
// submitting worker makes progress itself, recursing depth-first.
func (w *walker) submit(cx *Context, t state) {
	if w.tasks != nil {
		t.ind.Freeze()
		w.open.Add(1)
		select {
		case w.tasks <- t:
			return
		default:
			w.open.Done()
		}
	}
	w.process(cx, t)
}

// visitSolution runs the visitor under the serialization mutex,
// reporting whether the walk should stop.
func (w *walker) visitSolution(rec obs.Recorder, E *eqrel.Partition) bool {
	w.visitMu.Lock()
	defer w.visitMu.Unlock()
	if w.stopped || w.ctx.Err() != nil {
		return true
	}
	w.solutions++
	rec.Inc(obs.CoreSearchSolutions, 1)
	if w.visit(E) {
		w.stopped = true
		w.cancel()
		return true
	}
	return false
}

// process consumes one state on cx: dedup, budget, consistency check,
// visit, then expansion of the active pairs into children.
func (w *walker) process(cx *Context, t state) {
	if w.ctx.Err() != nil {
		return // cancelled: drain without work
	}
	w.visitedMu.Lock()
	_, dup := w.visited[t.key]
	full := !dup && len(w.visited) >= w.budget
	if !dup && !full {
		w.visited[t.key] = struct{}{}
	}
	w.visitedMu.Unlock()
	if dup {
		return
	}
	if full {
		cx.rec.Inc(obs.CoreSearchBudget, 1)
		w.fail(ErrBudget)
		return
	}
	cx.rec.Inc(obs.CoreSearchStates, 1)
	if w.tasks != nil {
		cx.rec.Inc(obs.CoreSearchTasks, 1)
		if !t.E.IsIdentity() {
			// Warm this worker's cache with the producer's induced DB,
			// so an expansion that lands on this state skips the
			// derivation.
			cx.storeKey(t.key, t.ind)
		}
	}

	if cx.satisfiesDenials(t.E, t.ind) {
		// Hard rules are satisfied by construction (states are
		// hard-closed), and every state is a candidate solution, so a
		// consistent state is a solution.
		if w.visitSolution(cx.rec, t.E) {
			return
		}
	} else if w.prune {
		// Restricted specifications: denial violations are preserved
		// under further merges (no inequality atoms), so no descendant
		// can be a solution.
		return
	}
	for _, a := range cx.activePairs(t.E, t.ind) {
		if w.ctx.Err() != nil {
			return
		}
		// Hard-active pairs cannot appear here: the state is hard-closed.
		// The closure fails only when the walk's context is done; the
		// walk then reports why it stopped.
		child, err := cx.expand(w.ctx, t, a.Pair)
		if err != nil {
			return
		}
		w.submit(cx, child)
	}
}
