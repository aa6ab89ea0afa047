package main

// trace.go is the traced run behind the per-layer metrics. It runs the
// workload's seeded operations in this process, in three passes of a
// third of the run each (resolve-batch, whose operation already is the
// layer calls, has no rung 2 and two passes of half the run):
//
//   - untraced: rung 1 as the untraced run drives it, to price the
//     tracing itself (proc.trace_overhead_pct);
//   - traced, rung 1: the same operations with a client span around
//     each request and a bench middleware span around Server.Handler(),
//     correlated by the X-Request-ID the client sets; program counters
//     and histograms come from the server's own obs registry;
//   - rung 2: the same operations replayed directly against the layer
//     APIs the server calls (a Fork's Engine.*Ctx, ApplyDurable with the
//     WAL append as its precommit hook, db.Apply, the epoch's resolve),
//     each call timed.
//
// Every span stays in memory and is written as JSON Lines when the run
// ends. No span is added inside the program: layers are timed from
// outside, around calls into their public functions.
//
// Layer times are reported as shares of the traced operation time.
// Transport is client round trip minus handler time. Pool wait and the
// WAL append come from the program's serve.pool.wait and
// serve.wal.append histograms. Core and db time on the request path are
// taken from rung 2: the rung-2 median of the same call, counted once
// per operation that reached it (a cache hit reaches none).
// proc.unattributed_pct is what remains: serve's own handler work plus
// anything the rungs did not time.
//
// The layer-sum check fails the run when a child span outlasts its
// parent, or when the median rung-2 core time per operation exceeds the
// median rung-1 time containing it by more than 10% — the two rungs
// would then be measuring different work.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/serve"
)

// traceReadPanel is the number of read instances the traced run serves.
const traceReadPanel = 2

// span is one traced interval.
type span struct {
	Name    string `json:"name"`
	TraceID string `json:"trace_id"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps every span of a traced run in memory.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	next     int64
	spans    []span
	handlers map[string]span // middleware spans by request ID, not yet linked
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), handlers: make(map[string]span)} }

func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) keep(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record keeps a span measured elsewhere and returns its ID.
func (t *tracer) record(name, traceID string, parent int64, start, end time.Time) int64 {
	id := t.newID()
	t.keep(span{Name: name, TraceID: traceID, ID: id, Parent: parent, StartNS: t.ns(start), EndNS: t.ns(end)})
	return id
}

// timed runs f inside a span. f receives the span's ID, so spans it
// opens can name it as their parent.
func (t *tracer) timed(name, traceID string, parent int64, f func(id int64) error) (time.Duration, error) {
	id := t.newID()
	start := time.Now()
	err := f(id)
	end := time.Now()
	t.keep(span{Name: name, TraceID: traceID, ID: id, Parent: parent, StartNS: t.ns(start), EndNS: t.ns(end)})
	return end.Sub(start), err
}

// middleware records a serve.handler span around every request.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		id := r.Header.Get(serve.RequestIDHeader)
		t.mu.Lock()
		t.handlers[id] = span{Name: "serve.handler", TraceID: id, StartNS: t.ns(start), EndNS: t.ns(end)}
		t.mu.Unlock()
	})
}

// request links the handler span of a request to the client span that
// sent it. ok is false when the handler never ran.
func (t *tracer) request(traceID string, parent int64) (span, bool) {
	t.mu.Lock()
	h, ok := t.handlers[traceID]
	delete(t.handlers, traceID)
	t.mu.Unlock()
	if ok {
		h.ID = t.newID()
		h.Parent = parent
		t.keep(h)
	}
	return h, ok
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// cpuTime is this process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// layers accumulates the traced run's attribution.
type layers struct {
	opLats   []float64 // traced rung-1 op times, ms
	untraced []float64 // untraced rung-1 op times, ms
	coreOp   []float64 // rung-2 core time per op, ms
	cpu      time.Duration

	// Attributed rung-1 time, ms.
	transport, poolWait, audit, db, core, shardPlan, shardSolve float64

	cacheHits                           int
	states, matches                     float64
	inducedHits, inducedMisses          float64
	shardSolves, shardHits, shardMisses float64
	dirty, rounds                       []float64
}

// program adds the program's own counters and histograms between two
// snapshots of its registry.
func (l *layers) program(before, after obs.Snapshot) {
	c := func(name string) float64 { return float64(after.Counter(name) - before.Counter(name)) }
	d := func(name string) float64 {
		return ms(after.Duration(name).Total - before.Duration(name).Total)
	}
	l.poolWait += d(obs.ServePoolWait)
	l.audit += d(obs.ServeWALAppend)
	l.shardPlan += d(obs.SpanShardPlan)
	l.shardSolve += d(obs.SpanShardSolve)
	l.states += c(obs.CoreSearchStates)
	l.matches += c(obs.CQEvalMatches)
	l.inducedHits += c(obs.CoreCacheHits)
	l.inducedMisses += c(obs.CoreCacheMisses)
	l.shardSolves += c(obs.CoreShardSolves)
	l.shardHits += c(obs.CoreShardCacheHits)
	l.shardMisses += c(obs.CoreShardCacheMisses)
}

func (l *layers) metrics(r *runResult) {
	ops := float64(len(l.opLats))
	total := sum(l.opLats)
	pct := func(v float64) sampled { return one(100 * ratio(v, total)) }
	attributed := l.transport + l.poolWait + l.audit + l.db + l.core
	untraced := mean(l.untraced)

	r.Metrics["op.p50_ms"] = sampled{Value: median(l.opLats), Samples: l.opLats}
	r.Metrics["core.op_p50_ms"] = sampled{Value: median(l.coreOp), Samples: l.coreOp}
	r.Metrics["proc.cpu_ms_per_op"] = one(ratio(ms(l.cpu), ops))
	r.Metrics["proc.trace_overhead_pct"] = one(100 * ratio(mean(l.opLats)-untraced, untraced))
	r.Metrics["proc.unattributed_pct"] = pct(total - attributed)
	r.Metrics["transport.pct"] = pct(l.transport)
	r.Metrics["serve.pool_wait_pct"] = pct(l.poolWait)
	r.Metrics["core.pct"] = pct(l.core)
	r.Metrics["db.pct"] = pct(l.db)
	r.Metrics["audit.pct"] = pct(l.audit)
	r.Metrics["core.shard_plan_pct"] = pct(l.shardPlan)
	r.Metrics["core.shard_solve_pct"] = pct(l.shardSolve)
	r.Metrics["serve.cache_hit_ratio"] = one(ratio(float64(l.cacheHits), ops))
	r.Metrics["core.search_states_per_op"] = one(ratio(l.states, ops))
	r.Metrics["core.induced_cache_hit_ratio"] = one(ratio(l.inducedHits, l.inducedHits+l.inducedMisses))
	r.Metrics["cq.matches_per_op"] = one(ratio(l.matches, ops))
	r.Metrics["core.shard_solves_per_op"] = one(ratio(l.shardSolves, ops))
	r.Metrics["core.shard_solve_cache_hit_ratio"] = one(ratio(l.shardHits, l.shardHits+l.shardMisses))
	r.Metrics["core.dirty_shards_mean"] = sampled{Value: mean(l.dirty), Samples: l.dirty}
	r.Metrics["core.shard_rounds_mean"] = sampled{Value: mean(l.rounds), Samples: l.rounds}
}

// checkMedians is the cross-rung half of the layer-sum check: the
// median rung-2 core time per operation may exceed the median rung-1
// time that contains it by at most 10%.
func checkMedians(r *runResult, core, rung1 []float64) {
	if len(core) == 0 || len(rung1) == 0 {
		return
	}
	if c, h := median(core), median(rung1); c > 1.1*h {
		r.problem("layer-sum: rung-2 core time %.3f ms per op exceeds the rung-1 time containing it, %.3f ms, by more than 10%%", c, h)
	}
}

// runTraced is the traced run of one workload.
func runTraced(w string, seed int64, seconds float64, tmpDir string) (*runResult, error) {
	r := newResult(w, seed, true)
	tr := newTracer()
	pass := fromSeconds(seconds / 3)
	var l layers
	var err error
	switch w {
	case "read-hot", "read-cold":
		err = traceRead(r, tr, &l, seed, pass)
	case "write-mixed":
		err = traceWrite(r, tr, &l, seed, pass, tmpDir)
	default: // resolve-batch: no rung 2, the operation already is the layer calls
		err = traceBatch(r, tr, &l, seed, fromSeconds(seconds/2))
	}
	if err != nil {
		return nil, err
	}
	l.metrics(r)
	path := filepath.Join(tmpDir, fmt.Sprintf("trace-%s-%d.jsonl", w, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "lacebm: %s: %d spans written to %s\n", w, len(tr.spans), path)
	return r, nil
}

// listenTarget serves a fresh target through h(srv.Handler()).
func listenTarget(w string, genSeed int64, wal string, wrap func(http.Handler) http.Handler) (*target, string, func() error, error) {
	t, err := newTarget(w, genSeed, wal)
	if err != nil {
		return nil, "", nil, err
	}
	h := t.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	addr, stop, err := t.listen(h)
	if err != nil {
		t.close()
		return nil, "", nil, err
	}
	return t, "http://" + addr, stop, nil
}

func traceRead(r *runResult, tr *tracer, l *layers, seed int64, pass time.Duration) error {
	panel, err := prepareRead(seed, traceReadPanel)
	if err != nil {
		return err
	}
	per := pass / time.Duration(len(panel))
	var missCore, missHandler []float64
	for n, inst := range panel {
		opSeed := seed ^ inst.genSeed
		count := func(res []opResult) {
			for _, o := range res {
				r.Attempted++
				if !o.ok {
					r.fail("%s: %s", inst.reqs[o.key].path, o.why)
				}
			}
		}

		// Untraced pass.
		_, base, stop, err := listenTarget(r.Workload, inst.genSeed, "", nil)
		if err != nil {
			return err
		}
		warm(r, newClient(), base, inst.reqs)
		res, _ := closedLoop(per, readOp(base, inst.reqs, opSeed, nil))
		if err := stop(); err != nil {
			return err
		}
		count(res)
		for _, o := range res {
			l.untraced = append(l.untraced, ms(o.lat()))
		}

		// Traced pass, rung 1.
		t, base, stop, err := listenTarget(r.Workload, inst.genSeed, "", tr.middleware)
		if err != nil {
			return err
		}
		warm(r, newClient(), base, inst.reqs)
		ids := func(c, i int) string { return fmt.Sprintf("i%d-c%d-%d", n, c, i) }
		before, cpu0 := t.rec.Snapshot(), cpuTime()
		res, _ = closedLoop(per, readOp(base, inst.reqs, opSeed, ids))
		l.cpu += cpuTime() - cpu0
		l.program(before, t.rec.Snapshot())
		if err := stop(); err != nil {
			return err
		}
		count(res)

		rung2, err := rung2Read(tr, inst, n, opSeed, per)
		if err != nil {
			return err
		}
		for _, o := range res {
			id := ids(o.client, o.seq)
			h, ok := tr.request(id, tr.record("client.request", id, 0, o.start, o.end))
			if !ok {
				r.problem("layer-sum: request %s has no handler span", id)
				continue
			}
			if h.dur() > o.lat() {
				r.problem("layer-sum: handler span of %s (%v) outlasts its request (%v)", id, h.dur(), o.lat())
			}
			lat := ms(o.lat())
			l.opLats = append(l.opLats, lat)
			l.transport += lat - ms(h.dur())
			if o.cache == "hit" {
				l.cacheHits++
				continue
			}
			c := median(rung2[o.key])
			l.core += c
			missCore = append(missCore, c)
			missHandler = append(missHandler, ms(h.dur()))
		}
		for _, ds := range rung2 {
			l.coreOp = append(l.coreOp, ds...)
		}
	}
	checkMedians(r, missCore, missHandler)
	return nil
}

// rung2Read times each request's core call on a fresh Fork of an engine
// built as the server builds its epoch engine, following client 0's
// request sequence for d. It returns the times (ms) by request form.
func rung2Read(tr *tracer, inst readInstance, n int, opSeed int64, d time.Duration) (map[int][]float64, error) {
	ds, err := readDataset(inst.genSeed)
	if err != nil {
		return nil, err
	}
	eng, err := core.New(ds.DB, ds.Spec, ds.Sims, core.Options{})
	if err != nil {
		return nil, err
	}
	in := ds.DB.Interner()
	q, err := rules.ParseQuery(readQuery, ds.DB.Schema(), in.Clone(), ds.Sims)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	out := make(map[int][]float64)
	seq := newSequence(opSeed, 0, len(inst.reqs))
	for i, until := 0, time.Now().Add(d); i == 0 || time.Now().Before(until); i++ {
		k := seq.next()
		req := inst.reqs[k]
		fork := eng.Fork()
		dur, err := tr.timed("core."+req.form, fmt.Sprintf("r2-i%d-%d", n, i), 0, func(int64) error {
			var err error
			switch req.form {
			case "merges_certain":
				_, err = fork.CertainMergesCtx(ctx)
			case "merges_possible":
				_, err = fork.PossibleMergesCtx(ctx)
			case "maximal":
				_, err = fork.MaximalSolutionsCtx(ctx)
			case "answers_certain":
				_, err = fork.CertainAnswersCtx(ctx, q)
			case "answers_possible":
				_, err = fork.PossibleAnswersCtx(ctx, q)
			case "explain":
				a, _ := in.Lookup(req.a)
				b, _ := in.Lookup(req.b)
				_, err = fork.ExplainMergeCtx(ctx, a, b)
			default:
				err = fmt.Errorf("unknown form %q", req.form)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		out[k] = append(out[k], ms(dur))
	}
	return out, nil
}

// writePass serves a fresh write-mixed target (its handler wrapped by
// wrap) for d, then verifies every acknowledged write. It returns the
// rounds, the program's registry snapshots around them, and the CPU the
// process spent meanwhile.
func writePass(r *runResult, genSeed int64, sets [][]serve.FactJSON, d time.Duration, tmpDir string,
	wrap func(http.Handler) http.Handler, ids func(c, i int) [2]string) ([]opResult, obs.Snapshot, obs.Snapshot, time.Duration, error) {

	var before, after obs.Snapshot
	dir, err := os.MkdirTemp(tmpDir, "trace-write-")
	if err != nil {
		return nil, before, after, 0, err
	}
	defer os.RemoveAll(dir)
	wal := filepath.Join(dir, "wal.jsonl")
	t, base, stop, err := listenTarget("write-mixed", genSeed, wal, wrap)
	if err != nil {
		return nil, before, after, 0, err
	}
	maximalRead(r, base, "epoch-0 read")
	before, cpu0 := t.rec.Snapshot(), cpuTime()
	res, _, acks, final := driveWrites(r, base, sets, d, ids)
	cpu := cpuTime() - cpu0
	after = t.rec.Snapshot()
	if err := stop(); err != nil {
		return nil, before, after, 0, err
	}
	verifyWrites(r, t.ds, acks, wal, final)
	return res, before, after, cpu, nil
}

func traceWrite(r *runResult, tr *tracer, l *layers, seed int64, pass time.Duration, tmpDir string) error {
	genSeed := seedStream(seed)() // the first instance of the untraced run
	ds, err := scaleDataset(genSeed, writeEntities)
	if err != nil {
		return err
	}
	sets := writeTupleSets(ds, seed^genSeed)

	res, _, _, _, err := writePass(r, genSeed, sets, pass, tmpDir, nil, nil)
	if err != nil {
		return err
	}
	for _, o := range res {
		l.untraced = append(l.untraced, ms(o.lat()))
	}

	ids := func(c, i int) [2]string {
		return [2]string{fmt.Sprintf("c%d-%d-w", c, i), fmt.Sprintf("c%d-%d-r", c, i)}
	}
	res, before, after, cpu, err := writePass(r, genSeed, sets, pass, tmpDir, tr.middleware, ids)
	if err != nil {
		return err
	}
	l.cpu += cpu
	l.program(before, after)

	rung2, err := rung2Write(r, tr, sets, genSeed, pass, tmpDir)
	if err != nil {
		return err
	}
	coreMed, dbMed := median(rung2.core), median(rung2.db)
	var rounds []float64
	for _, o := range res {
		id := ids(o.client, o.seq)
		roundID := tr.record("client.round", id[0], 0, o.start, o.end)
		var hsum time.Duration
		for _, rid := range id {
			h, ok := tr.request(rid, roundID)
			if !ok {
				r.problem("layer-sum: request %s has no handler span", rid)
				continue
			}
			hsum += h.dur()
		}
		if hsum > o.lat() {
			r.problem("layer-sum: handler spans of round %s (%v) outlast it (%v)", id[0], hsum, o.lat())
		}
		lat := ms(o.lat())
		l.opLats = append(l.opLats, lat)
		l.transport += lat - ms(hsum)
		l.core += coreMed
		l.db += dbMed
		rounds = append(rounds, lat)
		if o.cache == "hit" {
			l.cacheHits++
		}
		// -1 means the previous epoch had not resolved when the batch
		// arrived, so the server could not count the shards it touched.
		if o.ack != nil && o.ack.DirtyShards >= 0 {
			l.dirty = append(l.dirty, float64(o.ack.DirtyShards))
		}
	}
	l.coreOp = rung2.core
	l.rounds = rung2.rounds
	// The epoch's resolve runs in the server's background from the moment
	// the write publishes, so the read's handler waits only for what is
	// left of it: rung 2's core time is bounded by the round, not by the
	// handlers.
	checkMedians(r, rung2.core, rounds)
	return nil
}

// writeRung2 holds rung 2's per-round times (ms) and stitch rounds.
type writeRung2 struct {
	core, db, rounds []float64
}

// rung2Write replays the write rounds — alternating the two clients'
// batches — against the calls handleFacts and handleMaximal make:
// MutableSession.ApplyDurable with a durable audit append as the
// precommit hook, then the new epoch's resolve and maximal solutions.
// db.Apply on the same batch is timed on its own; core time per round
// is ApplyDurable minus its hook and minus db.Apply, plus the resolve
// and the read.
func rung2Write(r *runResult, tr *tracer, sets [][]serve.FactJSON, genSeed int64, pass time.Duration, tmpDir string) (*writeRung2, error) {
	ds, err := scaleDataset(genSeed, writeEntities)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpDir, "trace-rung2-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	alog, _, err := audit.Open(filepath.Join(dir, "wal.jsonl"), audit.Options{Durable: true})
	if err != nil {
		return nil, err
	}
	defer alog.Close()
	msess, err := core.NewMutableSharded(ds.DB, ds.Spec, ds.Sims, core.Options{}, core.ShardOptions{})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if _, err := msess.Snapshot().PossibleMergesCtx(ctx); err != nil {
		return nil, err
	}
	out := &writeRung2{}
	for i, until := 0, time.Now().Add(pass); i == 0 || time.Now().Before(until); i++ {
		req := writeBatch(sets, i%clients, i/clients)
		b := core.Batch{Insert: factSpecs(req.Insert), Retract: factSpecs(req.Retract)}
		id := "r2-" + strconv.Itoa(i)
		var dbDur, applyDur, hook, resolveDur, readDur time.Duration
		var snap *core.EpochSnapshot
		_, err := tr.timed("rung2.round", id, 0, func(round int64) error {
			prev := msess.Snapshot()
			var err error
			if dbDur, err = tr.timed("db.apply", id, round, func(int64) error {
				_, _, _, err := db.Apply(prev.DB(), b.Insert, b.Retract)
				return err
			}); err != nil {
				return err
			}
			if applyDur, err = tr.timed("core.apply", id, round, func(apply int64) error {
				var err error
				_, snap, err = msess.ApplyDurable(b, func(res core.ApplyResult) error {
					rec := audit.Record{Op: audit.OpMutate, Insert: factLines(req.Insert), Retract: factLines(req.Retract),
						Epoch: res.Epoch, DBFingerprint: res.Fingerprint}
					var err error
					hook, err = tr.timed("audit.append", id, apply, func(int64) error { return alog.Append(rec) })
					return err
				})
				return err
			}); err != nil {
				return err
			}
			if resolveDur, err = tr.timed("core.resolve", id, round, func(int64) error {
				_, err := snap.PossibleMergesCtx(ctx)
				return err
			}); err != nil {
				return err
			}
			readDur, err = tr.timed("core.maximal", id, round, func(int64) error {
				_, err := snap.MaximalSolutionsCtx(ctx)
				return err
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		if hook > applyDur {
			r.problem("layer-sum: audit.append (%v) outlasts ApplyDurable (%v)", hook, applyDur)
		}
		st, err := snap.Sharded().Stats()
		if err != nil {
			return nil, err
		}
		out.core = append(out.core, ms(applyDur-hook-dbDur+resolveDur+readDur))
		out.db = append(out.db, ms(dbDur))
		out.rounds = append(out.rounds, float64(st.Rounds))
	}
	return out, nil
}

// factLines renders wire facts as audit rows, relation name first, as
// the server's WAL records them.
func factLines(fs []serve.FactJSON) [][]string {
	var out [][]string
	for _, f := range fs {
		out = append(out, append([]string{f.Rel}, f.Args...))
	}
	return out
}

func traceBatch(r *runResult, tr *tracer, l *layers, seed int64, pass time.Duration) error {
	ctx := context.Background()

	// Untraced pass: the batch child's operations, in this process; the
	// traced pass resolves the same instances again.
	var ops []batchOp
	var seeds []int64
	next := seedStream(seed)
	for i, until := 0, time.Now().Add(pass); i == 0 || time.Now().Before(until); i++ {
		op := batchOnce(next())
		ops = append(ops, op)
		seeds = append(seeds, op.Seed)
		l.untraced = append(l.untraced, op.ResolveS*1000)
	}

	// Traced pass: each stage in a span under the operation's span, the
	// program's own spans and counters in a live registry.
	rec := obs.NewRegistry()
	for i, until := 0, time.Now().Add(pass); i == 0 || time.Now().Before(until); i++ {
		s := seeds[i%len(seeds)]
		ds, err := scaleDataset(s, batchEntities)
		if err != nil {
			return err
		}
		id := "b" + strconv.Itoa(i)
		var res *resolution
		var stages time.Duration
		before, cpu0 := rec.Snapshot(), cpuTime()
		dur, err := tr.timed("batch.resolve", id, 0, func(parent int64) error {
			var err error
			res, err = resolveSharded(ctx, ds, core.Options{Recorder: rec}, func(name string, f func() error) error {
				d, err := tr.timed(name, id, parent, func(int64) error { return f() })
				stages += d
				return err
			})
			return err
		})
		l.cpu += cpuTime() - cpu0
		l.program(before, rec.Snapshot())
		op := batchOp{Seed: s, ResolveS: dur.Seconds()}
		if err == nil {
			err = res.check()
		}
		if err != nil {
			op.Err = err.Error()
		} else {
			op.Digest = res.digest(ds.DB.Interner())
			l.rounds = append(l.rounds, float64(res.stats.Rounds))
		}
		ops = append(ops, op)
		if stages > dur {
			r.problem("layer-sum: stages of %s (%v) outlast it (%v)", id, stages, dur)
		}
		l.opLats = append(l.opLats, ms(dur))
		l.coreOp = append(l.coreOp, ms(dur))
		l.core += ms(stages)
	}
	checkBatch(r, ops)
	return nil
}
