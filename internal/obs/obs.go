// Package obs is the unified instrumentation layer of the repository:
// counters, gauges, duration statistics and hierarchical span tracing
// behind a single Recorder interface. Every performance-relevant layer
// (internal/core, internal/asp, internal/cq, internal/blocking) reports
// through a Recorder, so one registry collects a uniform stats block
// for any reasoning task — the visibility ASPEN-style systems provide
// for collective-ER workloads (grounding size, solve time, search
// effort) without external dependencies.
//
// Two implementations exist:
//
//   - Nop, the zero-cost default: every method is an empty body and
//     Start returns a nil *Span whose methods are nil-safe, so
//     uninstrumented runs allocate nothing and pay only a static call.
//   - Registry, the live recorder: thread-safe counters, gauges and
//     sample histograms plus an optional JSONL trace sink for spans.
//
// Hot loops (unit propagation, decision points) must NOT call the
// Recorder per event; they keep plain integer fields and flush deltas
// at phase boundaries (see internal/asp). Per-state and per-evaluation
// events may call the Recorder directly — a Nop call is negligible next
// to the work it annotates.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder is the instrumentation sink threaded through the engines.
// Implementations must be safe for concurrent use by multiple
// goroutines for Inc, Gauge and Observe; span Start/End pairs assume a
// single goroutine (the solvers are sequential).
type Recorder interface {
	// Inc adds delta to the named counter.
	Inc(name string, delta int64)
	// Gauge sets the named gauge to v (last write wins).
	Gauge(name string, v int64)
	// Observe records one duration sample under name.
	Observe(name string, d time.Duration)
	// Start opens a span; the caller must End it. The returned span may
	// be nil (the no-op recorder) — all Span methods are nil-safe.
	Start(name string) *Span
	// Snapshot returns a point-in-time copy of everything recorded.
	Snapshot() Snapshot
}

// Nop is the zero-cost discard recorder: no state, no allocation.
type Nop struct{}

// Inc discards the increment.
func (Nop) Inc(string, int64) {}

// Gauge discards the value.
func (Nop) Gauge(string, int64) {}

// Observe discards the sample.
func (Nop) Observe(string, time.Duration) {}

// Start returns a nil span (all Span methods are nil-safe).
func (Nop) Start(string) *Span { return nil }

// Snapshot returns the empty snapshot.
func (Nop) Snapshot() Snapshot { return Snapshot{} }

// OrNop normalizes a possibly-nil recorder to a usable one.
func OrNop(r Recorder) Recorder {
	if r == nil {
		return Nop{}
	}
	return r
}

// DurationStats summarizes the samples observed under one name: the
// histogram's count, sum and extrema read as durations. Snapshot derives
// one for every duration histogram, and none for a value histogram
// (IsValueHist), whose samples are counts.
type DurationStats struct {
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Mean is the average sample (0 when empty).
func (d DurationStats) Mean() time.Duration {
	if d.Count == 0 {
		return 0
	}
	return d.Total / time.Duration(d.Count)
}

// Snapshot is a point-in-time copy of a recorder's metrics, suitable
// for JSON encoding. All maps are copied under one lock acquisition, so
// a snapshot is internally consistent. Durations is a view of
// Histograms: for every duration histogram's name, Durations[name] is
// derived from Histograms[name]; value histograms appear in Histograms
// only.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]int64          `json:"gauges,omitempty"`
	Durations  map[string]DurationStats  `json:"durations,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
	// Derived holds float metrics computed from the counters at
	// snapshot time (e.g. serve.cache.hit_ratio).
	Derived map[string]float64 `json:"derived,omitempty"`
}

// Counter returns the named counter (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// GaugeValue returns the named gauge (0 when absent).
func (s Snapshot) GaugeValue(name string) int64 { return s.Gauges[name] }

// Duration returns the stats observed under name (zero when absent).
func (s Snapshot) Duration(name string) DurationStats { return s.Durations[name] }

// Histogram returns the histogram observed under name (zero when
// absent).
func (s Snapshot) Histogram(name string) HistogramStats { return s.Histograms[name] }

// Empty reports whether nothing was recorded.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Durations) == 0 &&
		len(s.Histograms) == 0
}

// Format renders the snapshot as an aligned human-readable table:
// durations (per phase, with histogram percentiles) first, then value
// histograms, then counters and gauges.
func (s Snapshot) Format() string {
	var b strings.Builder
	if len(s.Durations) > 0 {
		fmt.Fprintf(&b, "%-28s %8s %12s %12s %12s %12s %12s\n",
			"phase", "count", "total", "min", "p50", "p99", "max")
		for _, name := range sortedKeys(s.Durations) {
			d := s.Durations[name]
			h := s.Histograms[name]
			fmt.Fprintf(&b, "%-28s %8d %12v %12v %12v %12v %12v\n", name, d.Count,
				d.Total.Round(time.Microsecond), d.Min.Round(time.Microsecond),
				time.Duration(h.P50).Round(time.Microsecond),
				time.Duration(h.P99).Round(time.Microsecond),
				d.Max.Round(time.Microsecond))
		}
	}
	s.WriteDistributions(&b)
	if len(s.Counters) > 0 || len(s.Gauges) > 0 {
		fmt.Fprintf(&b, "%-46s %12s\n", "counter", "value")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "%-46s %12d\n", name, s.Counters[name])
		}
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "%-46s %12d\n", name, s.Gauges[name])
		}
	}
	return b.String()
}

// WriteDistributions writes the distribution table of the snapshot's
// value histograms (IsValueHist) to w, one row per histogram in name
// order with its count, min, p50, p99 and max in its own units. It
// writes nothing when the snapshot holds none. Format prints the same
// table.
func (s Snapshot) WriteDistributions(w io.Writer) {
	var names []string
	for name := range s.Histograms {
		if IsValueHist(name) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %8s %10s %10s %10s %10s\n",
		"distribution", "count", "min", "p50", "p99", "max")
	for _, name := range names {
		h := s.Histograms[name]
		fmt.Fprintf(w, "%-34s %8d %10d %10d %10d %10d\n",
			name, h.Count, h.Min, h.P50, h.P99, h.Max)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Registry is the live Recorder: mutex-guarded metric maps plus an
// optional JSONL trace sink for spans. One mutex guards counters,
// gauges and histograms together, so Snapshot returns a consistent
// point-in-time view even under concurrent writers.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]int64
	hists    map[string]*Hist
	strict   atomic.Bool

	traceMu sync.Mutex
	trace   *json.Encoder
	epoch   time.Time
	nextID  int64
	open    []int64 // stack of open span ids (parent attribution)
}

// NewRegistry returns an empty live recorder. Setting LACE_OBS_STRICT=1
// in the environment starts it in strict mode (see SetStrict), so any
// deployment can turn the name checklist into a hard invariant.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]int64),
		hists:    make(map[string]*Hist),
		epoch:    time.Now(),
	}
	if os.Getenv("LACE_OBS_STRICT") == "1" {
		r.strict.Store(true)
	}
	return r
}

// SetStrict toggles strict name checking: in strict mode every Inc,
// Gauge, Observe and Start panics when given a metric name that
// names.go does not declare (exactly or under a declared prefix).
// Tests and debug deployments use it to keep the canonical name
// checklist from drifting; production registries leave it off.
func (r *Registry) SetStrict(on bool) { r.strict.Store(on) }

// checkName enforces strict mode.
func (r *Registry) checkName(name string) {
	if r.strict.Load() && !IsDeclared(name) {
		panic(fmt.Sprintf("obs: undeclared metric name %q (declare it in internal/obs/names.go)", name))
	}
}

// TraceTo directs span events to w as JSON Lines, one object per
// completed span (children appear before their parents, in End order).
func (r *Registry) TraceTo(w io.Writer) {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	r.trace = json.NewEncoder(w)
}

// Inc adds delta to the named counter.
func (r *Registry) Inc(name string, delta int64) {
	if delta == 0 {
		return
	}
	r.checkName(name)
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Gauge sets the named gauge.
func (r *Registry) Gauge(name string, v int64) {
	r.checkName(name)
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Observe records one sample under name into its log-bucketed
// histogram.
func (r *Registry) Observe(name string, d time.Duration) {
	r.checkName(name)
	r.mu.Lock()
	r.hist(name).Observe(int64(d))
	r.mu.Unlock()
}

// MergeObservations folds a worker's buffered samples for name into the
// registry in one lock acquisition. obs.Local flushes through this, so
// per-worker histograms merge without replaying individual samples.
func (r *Registry) MergeObservations(name string, h *Hist) {
	if h.Count() == 0 {
		return
	}
	r.checkName(name)
	r.mu.Lock()
	r.hist(name).Merge(h)
	r.mu.Unlock()
}

// hist returns the histogram of name, creating it; r.mu must be held.
func (r *Registry) hist(name string) *Hist {
	h := r.hists[name]
	if h == nil {
		h = &Hist{}
		r.hists[name] = h
	}
	return h
}

// Start opens a span. The parent is the innermost span still open on
// this registry (spans are assumed to nest on one goroutine).
func (r *Registry) Start(name string) *Span {
	r.checkName(name)
	r.traceMu.Lock()
	r.nextID++
	id := r.nextID
	var parent int64
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, id)
	r.traceMu.Unlock()
	return &Span{reg: r, name: name, id: id, parent: parent, start: time.Now()}
}

// Snapshot copies the current metric state under one lock acquisition,
// so the result is a consistent point-in-time view: counters, gauges
// and histograms (with their duration views) all reflect the same
// instant, and derived metrics are computed from that same instant.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for k, v := range r.counters {
			s.Counters[k] = v
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for k, v := range r.gauges {
			s.Gauges[k] = v
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramStats, len(r.hists))
		for k, h := range r.hists {
			s.Histograms[k] = h.Stats()
			if IsValueHist(k) {
				continue
			}
			if s.Durations == nil {
				s.Durations = make(map[string]DurationStats, len(r.hists))
			}
			s.Durations[k] = DurationStats{Count: h.count, Total: time.Duration(h.sum),
				Min: time.Duration(h.min), Max: time.Duration(h.max)}
		}
	}
	s.Derived = DerivedMetrics(s)
	return s
}

// Reset clears counters, gauges and histograms. The
// trace sink and span id sequence are kept, so a long run can emit
// per-phase stats blocks while accumulating one coherent trace.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.counters = make(map[string]int64)
	r.gauges = make(map[string]int64)
	r.hists = make(map[string]*Hist)
	r.mu.Unlock()
}

// Span is an open tracing interval. A nil *Span (from the no-op
// recorder) accepts every method as a no-op.
type Span struct {
	reg    *Registry
	name   string
	id     int64
	parent int64
	start  time.Time
	attrs  []spanAttr
}

type spanAttr struct {
	key   string
	str   string
	num   int64
	isStr bool
}

// AttrInt attaches an integer attribute; returns the span for chaining.
func (sp *Span) AttrInt(key string, v int64) *Span {
	if sp == nil {
		return nil
	}
	sp.attrs = append(sp.attrs, spanAttr{key: key, num: v})
	return sp
}

// AttrStr attaches a string attribute; returns the span for chaining.
func (sp *Span) AttrStr(key, v string) *Span {
	if sp == nil {
		return nil
	}
	sp.attrs = append(sp.attrs, spanAttr{key: key, str: v, isStr: true})
	return sp
}

// End closes the span: its duration is observed under the span name,
// and a trace event is written when the registry has a trace sink.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	d := time.Since(sp.start)
	sp.reg.Observe(sp.name, d)
	sp.reg.endSpan(sp, d)
}

// traceEvent is the JSONL schema of one completed span.
type traceEvent struct {
	Span    string         `json:"span"`
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent,omitempty"`
	StartMS float64        `json:"start_ms"` // since registry creation
	DurMS   float64        `json:"dur_ms"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

func (r *Registry) endSpan(sp *Span, d time.Duration) {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	// Pop the span from the open stack (LIFO in well-nested use; scan
	// for robustness against out-of-order ends).
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i] == sp.id {
			r.open = append(r.open[:i], r.open[i+1:]...)
			break
		}
	}
	if r.trace == nil {
		return
	}
	ev := traceEvent{
		Span:    sp.name,
		ID:      sp.id,
		Parent:  sp.parent,
		StartMS: float64(sp.start.Sub(r.epoch)) / float64(time.Millisecond),
		DurMS:   float64(d) / float64(time.Millisecond),
	}
	if len(sp.attrs) > 0 {
		ev.Attrs = make(map[string]any, len(sp.attrs))
		for _, a := range sp.attrs {
			if a.isStr {
				ev.Attrs[a.key] = a.str
			} else {
				ev.Attrs[a.key] = a.num
			}
		}
	}
	_ = r.trace.Encode(ev) // tracing is best-effort; never fail the solve
}
