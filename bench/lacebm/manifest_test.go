package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func loadManifest(t *testing.T) (*manifest, []byte) {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	m, err := parseManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	return m, raw
}

func TestManifestValid(t *testing.T) {
	m, _ := loadManifest(t)
	if err := validateManifest(m); err != nil {
		t.Fatal(err)
	}
}

func TestManifestRejects(t *testing.T) {
	_, raw := loadManifest(t)
	src := string(raw)
	cases := []struct {
		name, old, new, want string
	}{
		{"bad metric name", `"name": "p50_ms"`, `"name": "p50 ms"`, "does not match"},
		{"bound above a quarter", `"bound": 0.25`, `"bound": 0.3`, "bound in (0, 0.25]"},
		{"missing setup_s", `"name": "setup_s"`, `"name": "setup_time"`, "must include setup_s"},
		{"unknown key", `"run_seconds"`, `"extra": 1, "run_seconds"`, "unknown field"},
		{"duplicate name", `"name": "p90_ms"`, `"name": "p50_ms"`, "used twice"},
		{"absolute command path", `"bash"`, `"/bin/bash"`, "leaves the repository"},
		{"bad unit", `"unit": "MB"`, `"unit": "mega bytes"`, "has unit"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if !strings.Contains(src, c.old) {
				t.Fatalf("manifest has no %q to mutate", c.old)
			}
			mutated := strings.Replace(src, c.old, c.new, 1)
			m, err := parseManifest([]byte(mutated))
			if err == nil {
				err = validateManifest(m)
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got error %v, want one containing %q", err, c.want)
			}
		})
	}
}

func TestManifestLimits(t *testing.T) {
	m, _ := loadManifest(t)
	mm := *m
	mm.Workloads = mm.Workloads[:1]
	if err := validateManifest(&mm); err == nil || !strings.Contains(err.Error(), "want 2..8") {
		t.Fatalf("one workload accepted: %v", err)
	}
	mm = *m
	mm.Workloads = append([]manifestWorkload(nil), m.Workloads...)
	mm.Workloads[0].Why = ""
	if err := validateManifest(&mm); err == nil || !strings.Contains(err.Error(), "one-line reason") {
		t.Fatalf("workload without a reason accepted: %v", err)
	}
	mm = *m
	mm.PerLayer = append(append([]manifestMetric(nil), m.PerLayer...), manifestMetric{Name: "x.y", Unit: "ms", Better: "lower", Bound: new(float64)})
	if err := validateManifest(&mm); err == nil || !strings.Contains(err.Error(), "per-layer metrics are unbounded") {
		t.Fatalf("bounded per-layer metric accepted: %v", err)
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(n=4) default, which the spread checks use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6}, // Python extrapolates beyond two values
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
	} {
		q1, m, q3 := quartiles(c.in)
		for _, p := range [][2]float64{{q1, c.q1}, {m, c.m}, {q3, c.q3}} {
			if math.Abs(p[0]-p[1]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
				break
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	m, _ := loadManifest(t)
	recs := func(metric string, vals ...float64) []record {
		var out []record
		for _, v := range vals {
			out = append(out, record{Workload: "read-cold", Metric: metric, Value: v})
		}
		return out
	}
	var a, b []record
	a = append(a, recs("p50_ms", 10, 10.1, 9.9, 10, 10.05)...)
	b = append(b, recs("p50_ms", 10.2, 10.1, 10, 10.3, 10.1)...)
	a = append(a, recs("ops_per_s", 100, 101, 99, 100)...)
	b = append(b, recs("ops_per_s", 50, 51, 49, 50)...)
	a = append(a, recs("p90_ms", 10, 30, 20, 10, 30)...)
	b = append(b, recs("p90_ms", 20, 20, 20, 20)...)
	lines, summary := compareRecords(m, a, b)
	want := map[string]string{"p50_ms": "agree", "ops_per_s": "worse", "p90_ms": "unresolved"}
	for metric, verdict := range want {
		found := false
		for _, l := range lines {
			f := strings.Split(l, "\t")
			if f[1] == metric {
				found = true
				if f[len(f)-1] != verdict {
					t.Errorf("%s: verdict %q, want %q (%s)", metric, f[len(f)-1], verdict, l)
				}
			}
		}
		if !found {
			t.Errorf("%s missing from comparison", metric)
		}
	}
	if summary != "1 agree, 1 worse, 0 better, 1 unresolved" {
		t.Errorf("summary %q", summary)
	}
}
