package obs

// Local is a per-worker buffering view of a shared Recorder, following
// the package rule that hot loops accumulate counters locally and flush
// at phase boundaries. Inc and Observe buffer into plain maps owned by
// the worker's goroutine; Gauge, Start and Snapshot delegate to the
// shared recorder directly (they are rare on hot paths, and the shared
// implementations are goroutine-safe). A Local must be used by a single
// goroutine; call Flush when the worker finishes so the buffered counts
// and samples reach the shared recorder.
type Local struct {
	shared Recorder
	counts map[string]int64
	hists  map[string]*Hist // buffered samples per name
}

// NewLocal returns a buffering view of shared (Nop if shared is nil).
func NewLocal(shared Recorder) *Local {
	return &Local{shared: OrNop(shared), counts: make(map[string]int64)}
}

// Inc buffers a counter increment; it reaches the shared recorder on
// Flush.
func (l *Local) Inc(name string, delta int64) {
	if delta != 0 {
		l.counts[name] += delta
	}
}

// Gauge delegates to the shared recorder.
func (l *Local) Gauge(name string, v int64) { l.shared.Gauge(name, v) }

// Observe buffers a sample; it reaches the shared recorder on Flush.
func (l *Local) Observe(name string, v int64) { l.hist(name).Observe(v) }

// MergeObservations folds an already-buffered distribution into this
// Local's buffer (nested Local flushing through a parent Local).
func (l *Local) MergeObservations(name string, h *Hist) {
	if h.Count() > 0 {
		l.hist(name).Merge(h)
	}
}

// hist returns the buffer for name, creating it.
func (l *Local) hist(name string) *Hist {
	if l.hists == nil {
		l.hists = make(map[string]*Hist)
	}
	h := l.hists[name]
	if h == nil {
		h = &Hist{}
		l.hists[name] = h
	}
	return h
}

// Start delegates to the shared recorder. Spans are single-goroutine
// objects already; parallel workers should avoid spans on hot paths.
func (l *Local) Start(name string) *Span { return l.shared.Start(name) }

// Snapshot delegates to the shared recorder. Counts and samples
// buffered in this Local and not yet flushed are not included.
func (l *Local) Snapshot() Snapshot { return l.shared.Snapshot() }

// Flush pushes all buffered counts and observations to the shared
// recorder and resets the buffers. Call it from the goroutine that owns
// the Local.
func (l *Local) Flush() {
	for n, v := range l.counts {
		l.shared.Inc(n, v)
	}
	clear(l.counts)
	for n, h := range l.hists {
		l.shared.MergeObservations(n, h)
	}
	clear(l.hists)
}
