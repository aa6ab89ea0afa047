package obs

import (
	"strings"
	"testing"
	"time"
)

// promSnapshot builds a registry exercising every metric kind and
// returns its snapshot.
func promSnapshot() Snapshot {
	reg := NewRegistry()
	reg.Inc(ServeRequests, 42)
	reg.Inc(ServeCacheHits, 3)
	reg.Inc(ServeCacheMisses, 1)
	reg.Gauge(ServePoolInUse, 2)
	reg.Gauge(ServeInflight, 5)
	for i := 1; i <= 100; i++ {
		reg.Observe(SpanASPSolve, int64(time.Duration(i)*time.Millisecond))
		reg.Observe(ServeRequestPrefix+"maximal", int64(time.Duration(i)*time.Microsecond))
		reg.Observe(ServeRequestPrefix+"certain", int64(time.Duration(i)*100*time.Nanosecond))
		reg.Observe(HistASPDecisionsPerSolve, int64(i))
	}
	return reg.Snapshot()
}

func TestWritePromConformance(t *testing.T) {
	var b strings.Builder
	if err := WriteProm(&b, promSnapshot()); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	res := LintProm(strings.NewReader(b.String()))
	if err := res.Err(); err != nil {
		t.Fatalf("%v\n--- exposition ---\n%s", err, b.String())
	}
	missing := res.CheckFamilies(
		PromPrefix+"serve_requests_total",
		PromPrefix+"serve_cache_hits_total",
		PromPrefix+"serve_pool_in_use",
		PromPrefix+"serve_cache_hit_ratio",
		PromPrefix+"serve_request_seconds",
		PromPrefix+"asp_solve_seconds",
		PromPrefix+"asp_sat_decisions_per_solve",
	)
	if len(missing) > 0 {
		t.Fatalf("missing families: %v\n--- exposition ---\n%s", missing, b.String())
	}
	if got := res.Families[PromPrefix+"serve_requests_total"].Type; got != "counter" {
		t.Fatalf("serve_requests_total type = %q, want counter", got)
	}
	if got := res.Families[PromPrefix+"serve_request_seconds"].Type; got != "histogram" {
		t.Fatalf("serve_request_seconds type = %q, want histogram", got)
	}
}

func TestWritePromEndpointLabels(t *testing.T) {
	var b strings.Builder
	if err := WriteProm(&b, promSnapshot()); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		`lace_serve_request_seconds_bucket{endpoint="maximal",le="`,
		`lace_serve_request_seconds_count{endpoint="certain"} 100`,
		"lace_serve_requests_total 42",
		"lace_serve_cache_hit_ratio 0.75",
		"lace_serve_pool_in_use 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Value histograms carry raw units, not seconds: 100 decisions max
	// means a bucket bound of 128, not 1.28e-07.
	if !strings.Contains(out, `lace_asp_sat_decisions_per_solve_bucket{le="128"}`) {
		t.Errorf("value histogram not in raw units:\n%s", grepLines(out, "decisions_per_solve"))
	}
	if strings.Contains(out, "decisions_per_solve_seconds") {
		t.Errorf("value histogram wrongly rendered as seconds")
	}
}

func TestPromMangleAndEscape(t *testing.T) {
	if got := promMangle("serve.cache.hit_ratio"); got != "serve_cache_hit_ratio" {
		t.Fatalf("promMangle = %q", got)
	}
	if got := promMangle("9lives"); got != "_9lives" {
		t.Fatalf("promMangle leading digit = %q", got)
	}
	if got := escapeLabel("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Fatalf("escapeLabel = %q", got)
	}
}

func TestLintPromRejectsViolations(t *testing.T) {
	cases := map[string]string{
		"no TYPE":            "lace_x_total 1\n",
		"bad value":          "# TYPE lace_x counter\nlace_x_total one\n",
		"counter not _total": "# TYPE lace_x counter\nlace_x 1\n",
		"dup TYPE":           "# TYPE lace_x gauge\n# TYPE lace_x gauge\nlace_x 1\n",
		"bad label name":     "# TYPE lace_x gauge\nlace_x{0bad=\"v\"} 1\n",
		"unquoted label":     "# TYPE lace_x gauge\nlace_x{a=v} 1\n",
		"bad escape":         "# TYPE lace_x gauge\nlace_x{a=\"\\q\"} 1\n",
		"interleaved": "# TYPE lace_a gauge\nlace_a 1\n" +
			"# TYPE lace_b gauge\nlace_b 1\nlace_a 2\n",
		"shrinking buckets": "# TYPE lace_h histogram\n" +
			"lace_h_bucket{le=\"1\"} 5\nlace_h_bucket{le=\"2\"} 3\n" +
			"lace_h_bucket{le=\"+Inf\"} 5\nlace_h_sum 9\nlace_h_count 5\n",
		"missing +Inf": "# TYPE lace_h histogram\n" +
			"lace_h_bucket{le=\"1\"} 5\nlace_h_sum 9\nlace_h_count 5\n",
		"count != +Inf": "# TYPE lace_h histogram\n" +
			"lace_h_bucket{le=\"+Inf\"} 5\nlace_h_sum 9\nlace_h_count 4\n",
	}
	for name, exp := range cases {
		if err := LintProm(strings.NewReader(exp)).Err(); err == nil {
			t.Errorf("%s: lint accepted invalid exposition:\n%s", name, exp)
		}
	}
}

func TestLintPromAcceptsValidCorpus(t *testing.T) {
	exp := "# HELP lace_x_total A counter.\n# TYPE lace_x_total counter\n" +
		"lace_x_total 5\n" +
		"# TYPE lace_g gauge\nlace_g{k=\"a \\\"quoted\\\" \\\\ value\"} -1.5 1712345678\n" +
		"# TYPE lace_h histogram\n" +
		"lace_h_bucket{le=\"0.5\"} 1\nlace_h_bucket{le=\"1\"} 3\n" +
		"lace_h_bucket{le=\"+Inf\"} 4\nlace_h_sum 2.5\nlace_h_count 4\n" +
		"# random comment\n\n"
	res := LintProm(strings.NewReader(exp))
	if err := res.Err(); err != nil {
		t.Fatalf("lint rejected valid exposition: %v", err)
	}
	if got := res.Families["lace_h"].Samples; got != 5 {
		t.Fatalf("lace_h samples = %d, want 5", got)
	}
}

// grepLines returns the lines of s containing sub, for test failure
// messages.
func grepLines(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
