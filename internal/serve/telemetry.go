package serve

// telemetry.go is the request-scoped observability layer: X-Request-ID
// assignment, the structured access log, per-endpoint latency
// histograms, live runtime gauges, and the merge-decision audit hooks.
// The middleware wraps every route, so /healthz and /metrics appear in
// the access log and latency histograms alongside the reasoning
// endpoints.
//
// Telemetry never changes responses: request IDs ride in headers, the
// access and audit logs are side channels, and best-effort audit
// failures are dropped — counted under serve.audit.dropped and logged
// once, never failing the request. A differential test pins that bodies
// with telemetry on and off are byte-identical. The one exception is
// WAL mode, where the mutation record IS the durability contract:
// auditMutation failures there surface as errWAL and fail the request.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/obs"
)

// RequestIDHeader carries the request ID in both directions: honored on
// requests (so upstream proxies correlate), always set on responses.
const RequestIDHeader = "X-Request-ID"

// maxRequestIDLen bounds client-supplied request IDs.
const maxRequestIDLen = 64

// reqMeta is the per-request telemetry record, threaded through the
// request context so the endpoint plumbing can annotate what the
// middleware logs.
type reqMeta struct {
	id       string
	endpoint string        // endpoint name, set by Server.endpoint
	cache    string        // "hit", "miss", or "" (no cache lookup)
	outcome  string        // "ok", "interrupted", "error", "draining", "bad_request"
	poolWait time.Duration // time queued for a pooled engine
}

type reqMetaKey struct{}

// metaFrom returns the request's telemetry record, which withTelemetry
// installs on every request reaching a handler through Handler.
func metaFrom(ctx context.Context) *reqMeta {
	m, _ := ctx.Value(reqMetaKey{}).(*reqMeta)
	return m
}

// statusWriter captures the response status and size for the access
// log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// accessRecord is the JSONL schema of one access-log line.
type accessRecord struct {
	Time      string  `json:"ts"`
	RequestID string  `json:"request_id"`
	Method    string  `json:"method"`
	Path      string  `json:"path"`
	Endpoint  string  `json:"endpoint,omitempty"`
	Status    int     `json:"status"`
	DurMS     float64 `json:"dur_ms"`
	Bytes     int64   `json:"bytes"`
	// Cache is the response-cache disposition: "hit", "miss", or absent
	// when the route has no cache.
	Cache string `json:"cache,omitempty"`
	// Outcome distinguishes budget/interrupt endings ("interrupted")
	// from clean ("ok"), failed ("error"), refused ("draining") and
	// malformed ("bad_request") requests.
	Outcome string `json:"outcome,omitempty"`
	// PoolWaitMS is the time spent queued for a pooled engine.
	PoolWaitMS float64 `json:"pool_wait_ms,omitempty"`
}

// accessLogger serializes JSONL access records onto one writer.
type accessLogger struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *accessLogger) log(rec accessRecord) {
	b, err := json.Marshal(rec)
	if err != nil {
		return // telemetry must never fail a request
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Write(append(b, '\n'))
}

// withTelemetry wraps the route mux with the request-scoped layer.
func (s *Server) withTelemetry(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		meta := &reqMeta{id: s.requestID(r), outcome: "ok"}
		w.Header().Set(RequestIDHeader, meta.id)
		sw := &statusWriter{ResponseWriter: w}
		s.rec.Gauge(obs.ServeInflight, s.inflightN.Add(1))
		defer func() {
			s.rec.Gauge(obs.ServeInflight, s.inflightN.Add(-1))
			dur := s.now().Sub(start)
			ep := meta.endpoint
			if ep == "" {
				ep = strings.Trim(r.URL.Path, "/")
			}
			if ep != "" {
				s.rec.Observe(obs.ServeRequestPrefix+ep, dur)
			}
			if s.access != nil {
				status := sw.status
				if status == 0 {
					status = http.StatusOK
				}
				if meta.outcome == "ok" {
					switch {
					case status == http.StatusBadRequest:
						meta.outcome = "bad_request"
					case status >= 500:
						meta.outcome = "error"
					}
				}
				s.access.log(accessRecord{
					Time:       start.UTC().Format(time.RFC3339Nano),
					RequestID:  meta.id,
					Method:     r.Method,
					Path:       r.URL.Path,
					Endpoint:   meta.endpoint,
					Status:     status,
					DurMS:      float64(dur) / float64(time.Millisecond),
					Bytes:      sw.bytes,
					Cache:      meta.cache,
					Outcome:    meta.outcome,
					PoolWaitMS: float64(meta.poolWait) / float64(time.Millisecond),
				})
			}
		}()
		h.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqMetaKey{}, meta)))
	})
}

// requestID honors a sane client-supplied X-Request-ID, else mints one.
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get(RequestIDHeader); id != "" && len(id) <= maxRequestIDLen && isPrintableASCII(id) {
		return id
	}
	return s.nextID()
}

func isPrintableASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x21 || s[i] > 0x7e {
			return false
		}
	}
	return true
}

// defaultIDGen mints process-unique request IDs: a per-process epoch
// plus a sequence number.
func defaultIDGen() func() string {
	epoch := time.Now().UnixNano()
	var seq atomic.Int64
	return func() string {
		return fmt.Sprintf("%012x-%06d", epoch&0xffffffffffff, seq.Add(1))
	}
}

// refreshRuntimeGauges publishes the point-in-time health gauges read
// at scrape time: engine-pool occupancy, response-cache size, and
// process runtime stats.
func (s *Server) refreshRuntimeGauges() {
	s.rec.Gauge(obs.ServePoolInUse, int64(s.cfg.Workers-len(s.pool)))
	s.rec.Gauge(obs.ServeCacheSize, int64(s.cache.len()))
	s.rec.Gauge(obs.ServeEpoch, int64(s.cur.Load().snap.Epoch()))
	s.rec.Gauge(obs.ServeGoroutines, int64(runtime.NumGoroutine()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.rec.Gauge(obs.ServeHeapBytes, int64(ms.HeapAlloc))
}

// --- audit hooks ------------------------------------------------------

// errWAL marks a failed write-ahead append: the mutation was NOT made
// durable, so the request must fail without publishing the epoch.
var errWAL = errors.New("write-ahead log append failed")

// auditDrop accounts for n best-effort audit records discarded by a
// write failure: counted in /metrics, and the first drop per process is
// logged with its cause (later ones would repeat the same broken-sink
// story at line rate).
func (s *Server) auditDrop(n int64, err error) {
	if n <= 0 {
		return
	}
	s.rec.Inc(obs.ServeAuditDropped, n)
	s.dropOnce.Do(func() {
		log.Printf("serve: audit append failed, dropping records (first failure: %v)", err)
	})
}

// auditMerges records the merge decisions of one merges/{certain,
// possible} response, each justified as /v1/explain justifies it: in the
// first maximal solution of the epoch containing the pair. The snapshot
// picks those witnesses shard by shard from the resolution the response
// came from, so auditing never runs a second whole-instance search.
// Best-effort by design: an audit failure never fails the request
// (records whose explanation failed are written without a
// justification), and the response is already fully built — but every
// record lost to a write error is counted as dropped.
func (s *Server) auditMerges(ctx context.Context, snap *core.EpochSnapshot,
	meta *reqMeta, decision string, pairs []eqrel.Pair) {

	if s.audit == nil || len(pairs) == 0 {
		return
	}
	in := snap.DB().Interner()
	xs, err := snap.ExplainMergesCtx(ctx, pairs)
	recs := make([]audit.Record, len(pairs))
	for i, p := range pairs {
		var j *core.Justification
		if err == nil {
			j = xs[i].Justification
		}
		recs[i] = mergeRecord(meta, in, decision, p, j)
	}
	s.appendAudit(recs)
}

// auditExplain records the decision behind one /v1/explain response
// when the pair is mergeable (certain or possible); impossible pairs
// are not merge decisions and are not recorded.
func (s *Server) auditExplain(in *db.Interner, meta *reqMeta, x *core.MergeExplanation) {
	if s.audit == nil || x.Status == core.Impossible {
		return
	}
	decision := audit.DecisionPossible
	if x.Status == core.Certain {
		decision = audit.DecisionCertain
	}
	s.appendAudit([]audit.Record{mergeRecord(meta, in, decision, x.Pair, x.Justification)})
}

// appendAudit appends merge-decision records in order. A failed write
// poisons the log, so that record and every later one are lost; all of
// them are counted as dropped.
func (s *Server) appendAudit(recs []audit.Record) {
	for i, rec := range recs {
		if err := s.audit.Append(rec); err != nil {
			s.auditDrop(int64(len(recs)-i), err)
			return
		}
		s.rec.Inc(obs.ServeAuditRecords, 1)
	}
}

// mergeRecord is the audit record of one merge decision, carrying its
// justification when one was found.
func mergeRecord(meta *reqMeta, in *db.Interner, decision string, p eqrel.Pair, j *core.Justification) audit.Record {
	rec := audit.Record{
		Decision:  decision,
		A:         in.Name(p.A),
		B:         in.Name(p.B),
		RequestID: meta.id,
		Endpoint:  meta.endpoint,
	}
	if j != nil {
		rec.Rule = lastRule(j)
		rec.Justification = justLines(j, in)
	}
	return rec
}

// auditMutation records one applied fact batch: the facts by name, the
// epoch produced, and the post-batch database fingerprint. The
// fingerprint makes the log replayable as an integrity check — re-apply
// the recorded batches to the starting database and every recorded
// fingerprint must reproduce (laced -verify-audit -data and -recover do
// exactly this). It runs as ApplyDurable's precommit hook, before the
// epoch publishes. In WAL mode a failed append (or fsync) returns
// errWAL, aborting the apply — the durability contract. Otherwise it is
// best-effort like the merge hooks: failures drop the record, count it,
// and never fail the mutation.
func (s *Server) auditMutation(meta *reqMeta, req FactsRequest, res core.ApplyResult) error {
	if s.audit == nil {
		return nil
	}
	rec := audit.Record{
		Op:            audit.OpMutate,
		Insert:        factLines(req.Insert),
		Retract:       factLines(req.Retract),
		Epoch:         res.Epoch,
		DBFingerprint: res.Fingerprint,
		RequestID:     meta.id,
		Endpoint:      meta.endpoint,
	}
	start := s.now()
	err := s.audit.Append(rec)
	s.rec.Observe(obs.ServeWALAppend, s.now().Sub(start))
	if err != nil {
		if s.wal {
			return fmt.Errorf("%w: %v", errWAL, err)
		}
		s.auditDrop(1, err)
		return nil
	}
	s.rec.Inc(obs.ServeAuditRecords, 1)
	return nil
}

// factLines renders wire facts as relation-name-first string rows.
func factLines(fs []FactJSON) [][]string {
	if len(fs) == 0 {
		return nil
	}
	out := make([][]string, len(fs))
	for i, f := range fs {
		row := make([]string, 0, len(f.Args)+1)
		row = append(row, f.Rel)
		row = append(row, f.Args...)
		out[i] = row
	}
	return out
}

// justLines renders a justification as one line per Definition-4 step.
func justLines(j *core.Justification, in *db.Interner) []string {
	lines := strings.Split(strings.TrimRight(j.Format(in), "\n"), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimSpace(l)
	}
	return lines
}

// lastRule returns the rule of the final rule-application step — the
// application that concluded the derivation.
func lastRule(j *core.Justification) string {
	for i := len(j.Steps) - 1; i >= 0; i-- {
		if j.Steps[i].Rule != "" {
			return j.Steps[i].Rule
		}
	}
	return ""
}
