package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/eqrel"
	"repro/internal/limits"
	"repro/internal/obs"
)

// parSearcher explores the candidate-solution lattice with a pool of
// workers over a shared bounded work queue; it is the parallel
// counterpart of searcher.rec. Semantics mirror the sequential search:
// states are hard-closed and deduplicated by canonical partition key
// (a concurrent visited set), the state budget is an atomic counter,
// the first error cancels the whole run, and visits are serialized
// under a mutex so visitor callbacks never run concurrently and need no
// locking of their own. Only the visit order differs, so callers must
// accumulate order-independent results (sets, antichains, first-hit
// flags).
type parSearcher struct {
	e      *Engine
	ctx    context.Context
	cancel context.CancelFunc
	prune  bool
	budget int64

	// tasks carries states to the workers. A queued state's partition
	// is owned by the consuming worker; its induced database is frozen
	// before the hand-off, so any number of workers may read it (and
	// derive children from it) concurrently.
	tasks     chan state
	open      sync.WaitGroup // tasks queued or in flight
	states    atomic.Int64
	solutions atomic.Int64
	visited   sync.Map // canonical partition key -> struct{}

	visitMu sync.Mutex
	visit   func(E *eqrel.Partition) bool
	stopped bool // visitor requested stop; not an error

	errMu sync.Mutex
	err   error
}

// parWorker is one worker goroutine's state: its private evaluation
// Context (sliced induced-DB cache, forked sim memo) and its buffering
// recorder, flushed to the shared recorder when the worker exits.
type parWorker struct {
	s   *parSearcher
	cx  *Context
	rec *obs.Local
}

// parSolutions enumerates the solutions reachable from the hard closure
// of start using Options.Parallelism workers. See parSearcher for the
// visitor contract. The error is ErrBudget when the state budget was
// exhausted, ctx.Err() when the caller cancelled, nil when the space
// was fully explored or the visitor stopped the search.
func (e *Engine) parSolutions(ctx context.Context, start *eqrel.Partition, visit func(E *eqrel.Partition) bool) error {
	workers := e.sess.workers()
	// The base database is shared read-only by every worker from here
	// on: freeze it (eager indexes, inserts rejected) once per session.
	e.sess.freezeShared()
	e.rec.Gauge(obs.CoreSearchWorkers, int64(workers))
	sp := e.rec.Start(obs.SpanCoreSearch)

	// Root state: hard-close on the caller's context, then freeze its
	// induced database so the workers can share it.
	root := start.Clone()
	if err := e.HardClose(root); err != nil {
		sp.End()
		return err
	}
	rootState := e.stateOf(root)
	rootState.ind.Freeze()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	s := &parSearcher{
		e:      e,
		ctx:    runCtx,
		cancel: cancel,
		prune:  e.sess.spec.IsRestricted(),
		budget: int64(e.sess.opts.MaxStates),
		tasks:  make(chan state, workers*64),
		visit:  visit,
	}
	s.open.Add(1)
	s.tasks <- rootState

	var wg sync.WaitGroup
	ws := make([]*parWorker, workers)
	for i := 0; i < workers; i++ {
		w := &parWorker{s: s, rec: obs.NewLocal(e.rec)}
		w.cx = e.sess.newWorkerContext(workers, w.rec)
		ws[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range s.tasks {
				w.process(t)
				s.open.Done()
			}
		}()
	}
	// Close the queue once every submitted task has been processed;
	// workers then drain out of their range loops.
	go func() {
		s.open.Wait()
		close(s.tasks)
	}()
	wg.Wait()
	// Flush the worker buffers serially from this goroutine: e.rec may
	// itself be an obs.Local (a sharded solve running an inner parallel
	// search buffers through its shard worker's Local), so flushes must
	// not run concurrently.
	for _, w := range ws {
		w.rec.Flush()
	}

	sp.AttrInt("solutions", s.solutions.Load()).AttrInt("states", s.states.Load()).End()
	s.errMu.Lock()
	err := s.err
	s.errMu.Unlock()
	if err != nil {
		return err
	}
	if !s.stopped && ctx.Err() != nil {
		return limits.Wrap(ctx.Err())
	}
	return nil
}

// fail records the first error and cancels the run; queued tasks drain
// without doing work.
func (s *parSearcher) fail(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
	s.cancel()
}

// submit hands a child task to the pool, or processes it inline when
// the queue is full. The bounded queue plus inline fallback cannot
// deadlock: a send either succeeds immediately or the submitting worker
// makes progress itself, recursing depth-first like the sequential
// searcher.
func (s *parSearcher) submit(w *parWorker, t state) {
	s.open.Add(1)
	select {
	case s.tasks <- t:
	default:
		w.process(t)
		s.open.Done()
	}
}

// visitSolution runs the visitor under the serialization mutex,
// reporting whether the search should stop.
func (s *parSearcher) visitSolution(w *parWorker, E *eqrel.Partition) bool {
	s.visitMu.Lock()
	defer s.visitMu.Unlock()
	if s.stopped || s.ctx.Err() != nil {
		return true
	}
	s.solutions.Add(1)
	w.rec.Inc(obs.CoreSearchSolutions, 1)
	if s.visit(E) {
		s.stopped = true
		s.cancel()
		return true
	}
	return false
}

// process consumes one task: dedup, budget, consistency check, visit,
// then expansion of the active pairs into child tasks. It mirrors
// searcher.rec step for step.
func (w *parWorker) process(t state) {
	s := w.s
	if s.ctx.Err() != nil {
		return // cancelled: drain without work
	}
	if _, dup := s.visited.LoadOrStore(t.key, struct{}{}); dup {
		return
	}
	if s.states.Add(1) > s.budget {
		w.rec.Inc(obs.CoreSearchBudget, 1)
		s.fail(ErrBudget)
		return
	}
	w.rec.Inc(obs.CoreSearchStates, 1)
	w.rec.Inc(obs.CoreSearchTasks, 1)
	if !t.E.IsIdentity() {
		// Warm this worker's cache with the producer's induced DB, so
		// an expansion that lands on this state skips the derivation.
		w.cx.storeKey(t.key, t.ind)
	}

	consistent, err := w.cx.satisfiesDenials(t.E, t.ind)
	if err != nil {
		s.fail(err)
		return
	}
	if consistent {
		if s.visitSolution(w, t.E) {
			return
		}
	} else if s.prune {
		return
	}
	act, err := w.cx.activePairs(t.E, t.ind)
	if err != nil {
		s.fail(err)
		return
	}
	for _, a := range act {
		if s.ctx.Err() != nil {
			return
		}
		child, err := w.cx.expand(t, a.Pair)
		if err != nil {
			s.fail(err)
			return
		}
		child.ind.Freeze()
		s.submit(w, child)
	}
}
