package obs

// Canonical metric names. Each instrumented package reports under a
// dotted layer.subsystem.event scheme so snapshots from different
// reasoning tasks line up (the uniform stats block every experiment
// emits). New instrumentation should extend these lists rather than
// invent ad-hoc names.

// Counters.
const (
	// CoreSearchStates counts distinct candidate states explored by the
	// solution search.
	CoreSearchStates = "core.search.states"
	// CoreSearchSolutions counts solutions visited by the search.
	CoreSearchSolutions = "core.search.solutions"
	// CoreSearchBudget counts searches aborted by Options.MaxStates.
	CoreSearchBudget = "core.search.budget_exhausted"
	// CoreSearchTasks counts states processed by the workers of lattice
	// walks with more than one worker (zero when every walk has one).
	CoreSearchTasks = "core.search.tasks"
	// CoreCacheHits / CoreCacheMisses / CoreCacheEvictions expose the
	// induced-database cache: the cache is LRU, so each eviction drops
	// exactly one entry (the least recently used).
	CoreCacheHits      = "core.cache.hits"
	CoreCacheMisses    = "core.cache.misses"
	CoreCacheEvictions = "core.cache.evictions"
	// CorePlanCacheHits / CorePlanCacheMisses expose the prepared-plan
	// cache (one plan per rule body, denial constraint, or query).
	CorePlanCacheHits   = "core.plan.cache.hits"
	CorePlanCacheMisses = "core.plan.cache.misses"
	// CoreFixpointDeltaRounds counts semi-naive fixpoint rounds: rounds
	// after the first in a closure, which re-evaluate rule bodies only
	// on matches seeded from representatives merged in the previous
	// round.
	CoreFixpointDeltaRounds = "core.fixpoint.delta_rounds"
	// DBInducedIncremental counts induced databases derived
	// incrementally from a parent induced database (db.MapFrom) instead
	// of a full db.Map rebuild.
	DBInducedIncremental = "db.induced.incremental"
	// CoreDenialChecks counts denial-constraint satisfaction checks.
	CoreDenialChecks = "core.denial.checks"
	// CoreJustifyChecks counts Definition-4 justification constructions;
	// CoreJustifyReplays counts solution replays backing them.
	CoreJustifyChecks  = "core.justify.checks"
	CoreJustifyReplays = "core.justify.replays"
	// CoreShardSolves counts per-shard solution-space solves performed by
	// the sharded engine.
	CoreShardSolves = "core.shard.solves"
	// CoreShardCacheHits named the hits of the removed cross-epoch
	// per-shard solve cache.
	//
	// Deprecated: never incremented, and not in CanonicalCounters.
	CoreShardCacheHits = "core.shard.solve_cache.hits"
	// CoreShardCacheMisses named the misses of the removed cross-epoch
	// per-shard solve cache.
	//
	// Deprecated: never incremented, and not in CanonicalCounters.
	CoreShardCacheMisses = "core.shard.solve_cache.misses"

	// CQEvalCalls counts conjunctive-query evaluations;
	// CQEvalMatches counts the homomorphisms they enumerate (the join
	// output size summed over calls).
	CQEvalCalls   = "cq.eval.calls"
	CQEvalMatches = "cq.eval.matches"

	// ASPDecisions / ASPPropagations / ASPConflicts expose the CDCL
	// core of the stable-model solver; ASPSATLearned counts clauses
	// learned by conflict analysis and ASPSATRestarts its probe-phase
	// Luby restarts.
	ASPDecisions    = "asp.sat.decisions"
	ASPPropagations = "asp.sat.propagations"
	ASPConflicts    = "asp.sat.conflicts"
	ASPSATLearned   = "asp.sat.learned"
	ASPSATRestarts  = "asp.sat.restarts"
	// ASPLoopFormulas counts loop formulas added by the assat stability
	// test; ASPRestarts counts completion models it rejected (each
	// restarting the SAT search); ASPModels counts stable models found.
	ASPLoopFormulas = "asp.stable.loop_formulas"
	ASPRestarts     = "asp.stable.restarts"
	ASPModels       = "asp.stable.models"
	// ASPBudgetExhausted counts ASP pipeline phases (grounding or
	// solving) aborted by a resource budget — max ground rules, clauses
	// or decisions; ASPBudgetCanceled counts phases aborted by context
	// cancellation or an expired wall-clock deadline.
	ASPBudgetExhausted = "asp.budget.exhausted"
	ASPBudgetCanceled  = "asp.budget.canceled"

	// BlockingKept / BlockingPruned count candidate pairs that shared a
	// blocking key vs. pairs skipped; BlockingMatches counts pairs
	// admitted into the similarity table.
	BlockingKept    = "blocking.pairs.kept"
	BlockingPruned  = "blocking.pairs.pruned"
	BlockingMatches = "blocking.pairs.matched"

	// ServeRequests counts HTTP requests accepted by the resolution
	// server (after the draining check); ServeErrors counts responses
	// with a 5xx status; ServeInterrupted counts requests cut short by a
	// resource budget or deadline (413/504 partial-result responses).
	ServeRequests    = "serve.requests"
	ServeErrors      = "serve.errors"
	ServeInterrupted = "serve.interrupted"
	// ServeCacheHits / ServeCacheMisses / ServeCacheEvictions expose the
	// server's response cache, keyed by (endpoint, canonical request,
	// database fingerprint).
	ServeCacheHits      = "serve.cache.hits"
	ServeCacheMisses    = "serve.cache.misses"
	ServeCacheEvictions = "serve.cache.evictions"
	// ServeAuditRecords counts merge decisions appended to the
	// hash-chained audit log.
	ServeAuditRecords = "serve.audit.records"
	// ServeAuditDropped counts audit records discarded because the
	// append failed. Best-effort hooks (merge decisions, explanations)
	// drop and count; in WAL mode a mutation-record failure fails the
	// request instead and is NOT counted here.
	ServeAuditDropped = "serve.audit.dropped"
	// ServeMutations counts fact batches applied through POST /v1/facts;
	// each successful batch advances the epoch by one.
	ServeMutations = "serve.mutations"
)

// Gauges (sizes of the most recent construction).
const (
	// CoreSearchWorkers records the worker count of the most recent
	// lattice walk with more than one worker; one-worker walks leave it
	// unset.
	CoreSearchWorkers = "core.search.workers"
	// CoreShardCount / CoreShardRounds / CoreShardLargest describe the
	// most recent sharded resolution: nontrivial components answered or
	// solved as shards, stitch passes (0 when the lattice top answered,
	// 1 when it was inconsistent), and the largest shard's member count.
	CoreShardCount   = "core.shard.count"
	CoreShardRounds  = "core.shard.stitch_rounds"
	CoreShardLargest = "core.shard.largest"
	// ServeWorkers records the resolution server's worker-pool size.
	ServeWorkers = "serve.workers"
	// ASPGroundRules / ASPGroundAtoms size the ground program.
	ASPGroundRules = "asp.ground.rules"
	ASPGroundAtoms = "asp.ground.atoms"
	// ASPCompletionClauses / ASPCompletionVars size the Clark-completion
	// CNF handed to the SAT solver.
	ASPCompletionClauses = "asp.completion.clauses"
	ASPCompletionVars    = "asp.completion.vars"
	// ServePoolInUse / ServeInflight track the engines checked out of
	// the worker pool and the HTTP requests currently in a handler;
	// ServeCacheSize is the response-cache entry count. All three are
	// refreshed on every /metrics scrape.
	ServePoolInUse = "serve.pool.in_use"
	ServeInflight  = "serve.inflight"
	ServeCacheSize = "serve.cache.size"
	// ServeGoroutines / ServeHeapBytes are process-level health gauges
	// refreshed on scrape (runtime.NumGoroutine, MemStats.HeapAlloc).
	ServeGoroutines = "serve.runtime.goroutines"
	ServeHeapBytes  = "serve.runtime.heap_bytes"
	// ServeEpoch is the server's current database epoch (0 when the
	// server is immutable).
	ServeEpoch = "serve.epoch"
)

// Derived metrics: float ratios computed from counters at snapshot
// time. They appear in Snapshot.Derived and as Prometheus gauges, never
// as stored state.
const (
	// ServeCacheHitRatio is serve.cache.hits / (hits + misses), the
	// response-cache effectiveness over the process lifetime. Present
	// only once at least one lookup happened, so a cold cache (ratio 0)
	// is distinguishable from an idle one (absent).
	ServeCacheHitRatio = "serve.cache.hit_ratio"
)

// Span (phase) names. A span's duration is observed under its name —
// feeding both the per-phase duration table and a latency histogram —
// so these double as the keys of both.
const (
	SpanCoreSearch    = "core.search"
	SpanCoreMaxSol    = "core.maxsol"
	SpanCoreJustify   = "core.justify"
	SpanShardPlan     = "core.shard.plan"
	SpanShardSolve    = "core.shard.solve"
	SpanASPGround     = "asp.ground"
	SpanASPSolve      = "asp.solve"
	SpanBlockingBuild = "blocking.build"
	SpanServeRequest  = "serve.request"
)

// Non-span duration observations.
const (
	// ServePoolWait is the time a request spent queued for a pooled
	// engine — the gap between "slow solver" and "saturated pool" when
	// reading request latencies.
	ServePoolWait = "serve.pool.wait"
	// ServeWALAppend is the time one mutation spent appending (and, in
	// durable mode, fsyncing) its write-ahead record — the fsync tax on
	// the write path, separated from apply and resolve time.
	ServeWALAppend = "serve.wal.append"
)

// ServeRequestPrefix prefixes the per-endpoint request-latency
// histograms: serve.request.<endpoint> (e.g. serve.request.answers,
// serve.request.solutions/maximal). Prometheus exposition folds every
// such name into one lace_serve_request_seconds family with an
// endpoint label.
const ServeRequestPrefix = "serve.request."

// Value-histogram names: distributions of per-phase effort counts, not
// durations. Samples are raw units (decisions, rules, steps); the
// Prometheus renderer and Snapshot.Format treat them as unitless.
const (
	// HistASPDecisionsPerSolve / HistASPConflictsPerSolve /
	// HistASPPropagationsPerSolve distribute the CDCL effort of
	// individual Solve calls — the shape behind the asp.sat.*
	// running totals. HistASPSATLearnedPerSolve /
	// HistASPSATRestartsPerSolve distribute clauses learned and Luby
	// restarts per solve, and HistASPSATLBDPerSolve the solve's mean
	// literal-block distance (rounded; 0 when nothing was learned) —
	// the standard proxy for learned-clause quality.
	HistASPDecisionsPerSolve    = "asp.sat.decisions_per_solve"
	HistASPConflictsPerSolve    = "asp.sat.conflicts_per_solve"
	HistASPPropagationsPerSolve = "asp.sat.propagations_per_solve"
	HistASPSATLearnedPerSolve   = "asp.sat.learned_per_solve"
	HistASPSATRestartsPerSolve  = "asp.sat.restarts_per_solve"
	HistASPSATLBDPerSolve       = "asp.sat.lbd_per_solve"
	// HistASPLearnedPerSolve distributes the loop formulas (learned
	// clauses) added per stable-model search; HistASPRestartsPerSolve
	// the completion models rejected per search.
	HistASPLearnedPerSolve  = "asp.stable.learned_per_solve"
	HistASPRestartsPerSolve = "asp.stable.restarts_per_solve"
	// HistASPGroundRules distributes ground-program sizes across
	// grounding calls (the gauge only keeps the most recent).
	HistASPGroundRules = "asp.ground.rules_per_ground"
	// HistCoreJustifySteps distributes Definition-4 justification
	// lengths (steps per justification).
	HistCoreJustifySteps = "core.justify.steps"
	// HistShardSize distributes shard member counts (constants per
	// nontrivial component) across sharded resolutions.
	HistShardSize = "core.shard.size"
)

// CanonicalCounters lists every counter name above, in display order.
func CanonicalCounters() []string {
	return []string{
		CoreSearchStates, CoreSearchSolutions, CoreSearchBudget,
		CoreSearchTasks,
		CoreCacheHits, CoreCacheMisses, CoreCacheEvictions,
		CorePlanCacheHits, CorePlanCacheMisses,
		CoreFixpointDeltaRounds, DBInducedIncremental,
		CoreDenialChecks, CoreJustifyChecks, CoreJustifyReplays,
		CoreShardSolves,
		CQEvalCalls, CQEvalMatches,
		ASPDecisions, ASPPropagations, ASPConflicts,
		ASPSATLearned, ASPSATRestarts,
		ASPLoopFormulas, ASPRestarts, ASPModels,
		ASPBudgetExhausted, ASPBudgetCanceled,
		BlockingKept, BlockingPruned, BlockingMatches,
		ServeRequests, ServeErrors, ServeInterrupted,
		ServeCacheHits, ServeCacheMisses, ServeCacheEvictions,
		ServeAuditRecords, ServeAuditDropped, ServeMutations,
	}
}

// CanonicalGauges lists every gauge name above, in display order.
func CanonicalGauges() []string {
	return []string{
		CoreSearchWorkers, CoreShardCount, CoreShardRounds, CoreShardLargest,
		ServeWorkers,
		ASPGroundRules, ASPGroundAtoms,
		ASPCompletionClauses, ASPCompletionVars,
		ServePoolInUse, ServeInflight, ServeCacheSize,
		ServeGoroutines, ServeHeapBytes, ServeEpoch,
	}
}

// CanonicalPhases lists the span names above, in display order.
func CanonicalPhases() []string {
	return []string{
		SpanASPGround, SpanASPSolve,
		SpanCoreSearch, SpanCoreMaxSol, SpanCoreJustify,
		SpanShardPlan, SpanShardSolve,
		SpanBlockingBuild, SpanServeRequest,
	}
}

// CanonicalValueHists lists the value-histogram names, in display order.
func CanonicalValueHists() []string {
	return []string{
		HistASPDecisionsPerSolve, HistASPConflictsPerSolve,
		HistASPPropagationsPerSolve,
		HistASPSATLearnedPerSolve, HistASPSATRestartsPerSolve,
		HistASPSATLBDPerSolve,
		HistASPLearnedPerSolve, HistASPRestartsPerSolve,
		HistASPGroundRules,
		HistCoreJustifySteps, HistShardSize,
	}
}

// valueHists is the membership set behind IsValueHist.
var valueHists = func() map[string]bool {
	m := make(map[string]bool)
	for _, n := range CanonicalValueHists() {
		m[n] = true
	}
	return m
}()

// IsValueHist reports whether name is a value histogram (raw counts)
// rather than a duration histogram (nanoseconds).
func IsValueHist(name string) bool { return valueHists[name] }

// declared is the membership set behind IsDeclared: every canonical
// counter, gauge, phase, value histogram and non-span duration.
var declared = func() map[string]bool {
	m := make(map[string]bool)
	for _, list := range [][]string{
		CanonicalCounters(), CanonicalGauges(), CanonicalPhases(),
		CanonicalValueHists(), {ServePoolWait, ServeWALAppend},
	} {
		for _, n := range list {
			m[n] = true
		}
	}
	return m
}()

// declaredPrefixes lists name families whose members are dynamic but
// still declared (per-endpoint request histograms).
var declaredPrefixes = []string{ServeRequestPrefix}

// IsDeclared reports whether name belongs to the canonical checklist
// above (exactly, or under a declared dynamic prefix). Registries in
// strict mode reject undeclared names, so new instrumentation must
// extend this file — the drift guard the checklist depends on.
func IsDeclared(name string) bool {
	if declared[name] {
		return true
	}
	for _, p := range declaredPrefixes {
		if len(name) > len(p) && name[:len(p)] == p {
			return true
		}
	}
	return false
}

// DerivedMetrics computes the derived float metrics of a snapshot (see
// the Derived constants). Ratios with an empty denominator are omitted.
func DerivedMetrics(s Snapshot) map[string]float64 {
	var out map[string]float64
	hits, misses := s.Counter(ServeCacheHits), s.Counter(ServeCacheMisses)
	if total := hits + misses; total > 0 {
		out = map[string]float64{ServeCacheHitRatio: float64(hits) / float64(total)}
	}
	return out
}
