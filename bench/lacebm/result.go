package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// sampled is one metric's reported value together with the samples it
// was computed from (op latencies, per-setup times, per-instance
// throughputs, ...), so every record can carry its sample count and
// quartiles.
type sampled struct {
	Value   float64
	Samples []float64
	// Raw is Value before scaling to reference speed (see speed.go); it
	// equals Value for metrics that are not scaled.
	Raw float64
}

// one wraps a value measured once.
func one(v float64) sampled { return sampled{Value: v, Samples: []float64{v}, Raw: v} }

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload  string
	Seed      int64
	Trace     bool
	Attempted int
	Failed    int
	// Problems describes every failed operation or check (printed to
	// standard error); a run with problems is not correct.
	Problems []string
	Metrics  map[string]sampled
}

func newResult(w string, seed int64, trace bool) *runResult {
	return &runResult{Workload: w, Seed: seed, Trace: trace, Metrics: make(map[string]sampled)}
}

// fail records a failed operation.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	r.problem(format, args...)
}

// problem records a failed check that is not an operation (a layer-sum
// violation): it makes the run incorrect without counting an op.
func (r *runResult) problem(format string, args ...any) {
	const keep = 20 // the rest only repeat the story
	if len(r.Problems) < keep {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *runResult) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

func (r *runResult) defs() []metricDef {
	if r.Trace {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// resultLine is the run's final line on standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric by name and unit, then the result line.
// It returns an error when the run did not produce every declared
// metric.
func (r *runResult) report(stdout, stderr io.Writer) error {
	for _, p := range r.Problems {
		fmt.Fprintf(stderr, "lacebm: %s: %s\n", r.Workload, p)
	}
	line := resultLine{
		Correct:   r.correct(),
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   make(map[string]metricJSON),
	}
	var missing []string
	for _, d := range r.defs() {
		s, ok := r.Metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		fmt.Fprintf(stdout, "%-14s %-34s %16.6f %s  (n=%d)\n", r.Workload, d.Name, s.Value, d.Unit, len(s.Samples))
		line.Metrics[d.Name] = metricJSON{Value: s.Value, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: metrics not emitted: %v", r.Workload, missing)
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	return nil
}

// record is one metric of one run in the results file (JSON Lines):
// the value, its sample count and quartiles, and the conditions it was
// measured under. lacebm compare reads these back.
type record struct {
	Workload   string  `json:"workload"`
	Metric     string  `json:"metric"`
	Unit       string  `json:"unit"`
	Value      float64 `json:"value"`
	Raw        float64 `json:"raw"`
	Samples    int     `json:"samples"`
	Median     float64 `json:"median"`
	Q1         float64 `json:"q1"`
	Q3         float64 `json:"q3"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Correct    bool    `json:"correct"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

func (r *runResult) records(commit string) []record {
	var out []record
	for _, d := range r.defs() {
		s, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		q1, med, q3 := quartiles(s.Samples)
		out = append(out, record{
			Workload: r.Workload, Metric: d.Name, Unit: d.Unit,
			Value: s.Value, Raw: s.Raw, Samples: len(s.Samples), Median: med, Q1: q1, Q3: q3,
			Seed: r.Seed, Trace: r.Trace, Correct: r.correct(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
			GoVersion: runtime.Version(), Commit: commit,
		})
	}
	return out
}

// appendRecords appends records to path as JSON Lines.
func appendRecords(path string, recs []record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// readRecords loads a results file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var out []record
	for dec.More() {
		var rec record
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("%s: record %d: %w", path, len(out)+1, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// panelStats pools the operations of a run's instances (or, on
// resolve-batch, segments). Each instance's times are scaled by the
// slowdown measured around it (see speed.go) before pooling, so the
// pooled percentiles and rate read at reference speed; the unscaled pool
// is kept alongside. Set-up times and peak RSS are reported as their
// median.
type panelStats struct {
	lats, rawLats     []float64 // ms, every operation
	busy, rawBusy     float64   // seconds spent on the operations
	setups, rawSetups []float64 // seconds
	rss               []float64
}

// add records one instance: operation latencies, the seconds they took
// together (wall time for a closed loop), its set-ups and its peak RSS,
// with slow the machine's slowdown factor around it.
func (p *panelStats) add(slow float64, lats []time.Duration, busy time.Duration, setups []time.Duration, rssMB float64) {
	for _, l := range lats {
		p.rawLats = append(p.rawLats, ms(l))
		p.lats = append(p.lats, ms(l)/slow)
	}
	p.rawBusy += busy.Seconds()
	p.busy += busy.Seconds() / slow
	for _, s := range setups {
		p.rawSetups = append(p.rawSetups, s.Seconds())
		p.setups = append(p.setups, s.Seconds()/slow)
	}
	p.rss = append(p.rss, rssMB)
}

// addLoop records one instance driven by closedLoop.
func (p *panelStats) addLoop(slow float64, res []opResult, elapsed, setup time.Duration, rssMB float64) {
	lats := make([]time.Duration, len(res))
	for i, o := range res {
		lats[i] = o.lat()
	}
	p.add(slow, lats, elapsed, []time.Duration{setup}, rssMB)
}

func (p *panelStats) report(r *runResult) {
	ops := float64(len(p.lats))
	rate := ratio(ops, p.busy)
	r.Metrics["setup_s"] = sampled{Value: median(p.setups), Samples: p.setups, Raw: median(p.rawSetups)}
	r.Metrics["peak_rss_mb"] = sampled{Value: median(p.rss), Samples: p.rss, Raw: median(p.rss)}
	r.Metrics["ops_per_s"] = sampled{Value: rate, Samples: []float64{rate}, Raw: ratio(ops, p.rawBusy)}
	r.Metrics["p50_ms"] = sampled{Value: percentile(p.lats, 50), Samples: p.lats, Raw: percentile(p.rawLats, 50)}
	r.Metrics["p90_ms"] = sampled{Value: percentile(p.lats, 90), Samples: p.lats, Raw: percentile(p.rawLats, 90)}
}
