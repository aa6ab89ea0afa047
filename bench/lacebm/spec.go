package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
)

// The benchmark's contract: workload names, and the metrics every run
// emits. An untraced run emits every end-to-end metric for its
// workload, a traced run every per-layer metric; BENCHMARK.json at the
// repository root declares the same names with units, directions and
// bounds, and validateManifest keeps the two in step.

var workloadNames = []string{"read-hot", "read-cold", "write-mixed", "resolve-batch"}

type metricDef struct {
	Name string
	Unit string
}

// endToEndMetrics are measured with tracing off. Every workload has all
// of them, so each is defined in terms of the workload's own operation:
// one HTTP request on the read workloads, one write-then-read round on
// write-mixed, one full resolution on resolve-batch.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics come from the traced run. Layer times that only some
// workloads incur are shares of the traced operation time (%), so a
// layer a workload never reaches reads 0% rather than a fake duration.
var perLayerMetrics = []metricDef{
	{"op.p50_ms", "ms"},
	{"core.op_p50_ms", "ms"},
	{"proc.cpu_ms_per_op", "ms"},
	{"proc.trace_overhead_pct", "%"},
	{"proc.unattributed_pct", "%"},
	{"transport.pct", "%"},
	{"serve.pool_wait_pct", "%"},
	{"core.pct", "%"},
	{"db.pct", "%"},
	{"audit.pct", "%"},
	{"core.shard_plan_pct", "%"},
	{"core.shard_solve_pct", "%"},
	{"serve.cache_hit_ratio", "ratio"},
	{"core.search_states_per_op", "count"},
	{"core.induced_cache_hit_ratio", "ratio"},
	{"cq.matches_per_op", "count"},
	{"core.shard_solves_per_op", "count"},
	{"core.shard_solve_cache_hit_ratio", "ratio"},
	{"core.dirty_shards_mean", "count"},
	{"core.shard_rounds_mean", "count"},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// parseManifest decodes BENCHMARK.json strictly: unknown keys anywhere
// are an error, and so is any required key left out.
func parseManifest(raw []byte) (*manifest, error) {
	if len(raw) > 64<<10 {
		return nil, fmt.Errorf("manifest is %d bytes, over 64 KiB", len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			return nil, fmt.Errorf("manifest: missing key %q", k)
		}
	}
	return &m, nil
}

// validateManifest checks BENCHMARK.json against the benchmark
// contract and against the names and units this program emits.
func validateManifest(m *manifest) error {
	var errs []string
	bad := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }

	if n := len(m.Command); n < 1 || n > 32 {
		bad("command has %d strings, want 1..32", n)
	}
	for _, c := range m.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			bad("command string %q is too long or leaves the repository", c)
		}
	}
	if n := len(m.Paths); n < 1 || n > 16 {
		bad("paths has %d entries, want 1..16", n)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			bad("path %q is not a plain relative path", p)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		bad("run_seconds %d, want 1..60", m.RunSeconds)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		bad("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		bad("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		bad("%d per-layer metrics, want 1..128", n)
	}

	seen := make(map[string]bool)
	useName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			bad("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			bad("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range m.Workloads {
		useName("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			bad("workload %q needs a one-line reason of at most 200 characters", w.Name)
		}
	}
	checkMetric := func(kind string, mm manifestMetric) {
		useName(kind, mm.Name)
		if !unitRE.MatchString(mm.Unit) {
			bad("%s metric %q has unit %q", kind, mm.Name, mm.Unit)
		}
		if mm.Better != "lower" && mm.Better != "higher" {
			bad("%s metric %q: better is %q, want lower or higher", kind, mm.Name, mm.Better)
		}
	}
	var setupBound, maxBound float64
	for _, mm := range m.EndToEnd {
		checkMetric("end-to-end", mm)
		if mm.Bound == nil || *mm.Bound <= 0 || *mm.Bound > 0.25 {
			bad("end-to-end metric %q needs a bound in (0, 0.25]", mm.Name)
			continue
		}
		if *mm.Bound > maxBound {
			maxBound = *mm.Bound
		}
		if mm.Name == "setup_s" {
			if mm.Unit != "s" || mm.Better != "lower" {
				bad("setup_s must have unit s and better lower")
			}
			setupBound = *mm.Bound
		}
	}
	if setupBound == 0 {
		bad("end-to-end metrics must include setup_s")
	} else if setupBound < maxBound {
		bad("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for _, mm := range m.PerLayer {
		checkMetric("per-layer", mm)
		if mm.Bound != nil {
			bad("per-layer metric %q has a bound; per-layer metrics are unbounded", mm.Name)
		}
	}

	// The manifest and the program must declare the same contract.
	var declared []string
	for _, w := range m.Workloads {
		declared = append(declared, w.Name)
	}
	if strings.Join(declared, ",") != strings.Join(workloadNames, ",") {
		bad("manifest workloads %v, program runs %v", declared, workloadNames)
	}
	sameMetrics := func(kind string, got []manifestMetric, want []metricDef) {
		if len(got) != len(want) {
			bad("manifest lists %d %s metrics, program emits %d", len(got), kind, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				bad("%s metric %d: manifest %s [%s], program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	sameMetrics("end-to-end", m.EndToEnd, endToEndMetrics)
	sameMetrics("per-layer", m.PerLayer, perLayerMetrics)

	if len(errs) > 0 {
		return fmt.Errorf("BENCHMARK.json: %s", strings.Join(errs, "; "))
	}
	return nil
}
