package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/fixtures"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/sim"
)

// --- fixture loading --------------------------------------------------

type instance struct {
	db   *db.Database
	spec *rules.Spec
	sims *sim.Registry
}

// loadBib parses the bibliography dataset shipped as cmd/lace testdata.
// Each call parses afresh, so the oracle engine and the server under
// test never share mutable state.
func loadBib(t testing.TB) instance {
	t.Helper()
	read := func(name string) string {
		raw, err := os.ReadFile("../../cmd/lace/testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	d, err := db.ParseDatabase(read("bib.facts"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sims := sim.Default()
	tbl := sim.NewTable("approx")
	for _, line := range strings.Split(read("approx.tsv"), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) != 2 {
			t.Fatalf("approx.tsv: bad line %q", line)
		}
		tbl.Add(parts[0], parts[1])
	}
	sims.Register(tbl)
	spec, err := rules.ParseSpec(read("bib.spec"), d.Schema(), d.Interner(), sims)
	if err != nil {
		t.Fatal(err)
	}
	return instance{db: d, spec: spec, sims: sims}
}

// loadFig1 builds the running-example instance from internal/fixtures.
func loadFig1(t testing.TB) instance {
	t.Helper()
	f := fixtures.New()
	return instance{db: f.DB, spec: f.Spec, sims: f.Sims}
}

// oracle builds a sequential (Parallelism 1) engine over its own parse
// of the same instance — the reference the server must agree with.
func (in instance) oracle(t testing.TB) *core.Engine {
	t.Helper()
	eng, err := core.New(in.db, in.spec, in.sims, core.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// newTestServer builds a Server over the instance plus an httptest
// frontend. mod may adjust the Config before construction.
func newTestServer(t testing.TB, in instance, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{DB: in.db, Spec: in.spec, Sims: in.sims, Workers: 4}
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// post issues a JSON request and decodes the response into out,
// returning the status code and raw body.
func post(t testing.TB, ts *httptest.Server, path string, req any, out any) (int, []byte) {
	t.Helper()
	var body io.Reader
	if req != nil {
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(raw)
	}
	resp, err := http.Post(ts.URL+path, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s: bad JSON %q: %v", path, raw, err)
		}
	}
	return resp.StatusCode, raw
}

// --- endpoint tests ---------------------------------------------------

func TestHealthz(t *testing.T) {
	in := loadBib(t)
	_, ts := newTestServer(t, in, nil)
	var h HealthResponse
	code, _ := post(t, ts, "/healthz", nil, &h)
	if code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	if h.Status != "ok" || h.Facts != in.db.NumFacts() || h.Workers != 4 {
		t.Errorf("healthz = %+v", h)
	}
	if h.Fingerprint != Fingerprint(in.db) {
		t.Errorf("fingerprint %q != recomputed %q", h.Fingerprint, Fingerprint(in.db))
	}
}

func TestMergesEndpointsMatchOracle(t *testing.T) {
	for _, fix := range []struct {
		name string
		load func(testing.TB) instance
	}{{"bib", loadBib}, {"figure1", loadFig1}} {
		t.Run(fix.name, func(t *testing.T) {
			in := fix.load(t)
			eng := fix.load(t).oracle(t)
			_, ts := newTestServer(t, in, nil)

			inn := in.db.Interner()
			for _, sem := range []string{"certain", "possible"} {
				var want []MergePair
				var err error
				if sem == "certain" {
					cm, err2 := eng.CertainMergesCtx(context.Background())
					err = err2
					for _, p := range cm {
						want = append(want, MergePair{A: inn.Name(p.A), B: inn.Name(p.B)})
					}
				} else {
					pm, err2 := eng.PossibleMergesCtx(context.Background())
					err = err2
					for _, p := range pm {
						want = append(want, MergePair{A: inn.Name(p.A), B: inn.Name(p.B)})
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				var got MergesResponse
				code, _ := post(t, ts, "/v1/merges/"+sem, nil, &got)
				if code != http.StatusOK {
					t.Fatalf("%s status = %d", sem, code)
				}
				if got.Semantics != sem || got.Count != len(want) {
					t.Errorf("%s: count %d want %d", sem, got.Count, len(want))
				}
				if len(want) == 0 {
					want = []MergePair{}
				}
				if !reflect.DeepEqual(got.Merges, want) {
					t.Errorf("%s merges = %v, want %v", sem, got.Merges, want)
				}
			}
		})
	}
}

func TestMaximalSolutionsMatchOracle(t *testing.T) {
	in := loadBib(t)
	eng := loadBib(t).oracle(t)
	_, ts := newTestServer(t, in, nil)

	ms, err := eng.MaximalSolutionsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	inn := in.db.Interner()
	want := []SolutionJSON{}
	for _, m := range ms {
		sol := SolutionJSON{Classes: [][]string{}}
		for _, cls := range m.NontrivialClasses() {
			names := make([]string, len(cls))
			for i, c := range cls {
				names[i] = inn.Name(c)
			}
			sol.Classes = append(sol.Classes, names)
		}
		want = append(want, sol)
	}

	var got SolutionsResponse
	code, _ := post(t, ts, "/v1/solutions/maximal", nil, &got)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if got.Count != 2 || !reflect.DeepEqual(got.Solutions, want) {
		t.Errorf("solutions = %+v, want %+v", got.Solutions, want)
	}
}

func TestAnswersMatchOracle(t *testing.T) {
	in := loadBib(t)
	oeng := loadBib(t).oracle(t)
	_, ts := newTestServer(t, in, nil)

	const query = "(x) : Conference(x,n,y), Chair(x,a)"
	oin := oeng.DB().Interner()
	q, err := rules.ParseQuery(query, oeng.DB().Schema(), oin.Clone(), in.sims)
	if err != nil {
		t.Fatal(err)
	}

	for _, sem := range []string{"certain", "possible"} {
		var tuples [][]db.Const
		if sem == "certain" {
			tuples, err = oeng.CertainAnswersCtx(context.Background(), q)
		} else {
			tuples, err = oeng.PossibleAnswersCtx(context.Background(), q)
		}
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]string, len(tuples))
		for i, tup := range tuples {
			want[i] = make([]string, len(tup))
			for j, c := range tup {
				want[i][j] = oin.Name(c)
			}
		}

		var got AnswersResponse
		code, _ := post(t, ts, "/v1/answers", AnswersRequest{Query: query, Semantics: sem}, &got)
		if code != http.StatusOK {
			t.Fatalf("%s status = %d", sem, code)
		}
		if got.Count != len(want) || !reflect.DeepEqual(got.Answers, want) {
			t.Errorf("%s answers = %v, want %v", sem, got.Answers, want)
		}
	}

	// The pinned CLI expectation: certain answers are exactly c2 and c3.
	var got AnswersResponse
	post(t, ts, "/v1/answers", AnswersRequest{Query: query}, &got)
	if !reflect.DeepEqual(got.Answers, [][]string{{"c2"}, {"c3"}}) {
		t.Errorf("certain answers = %v, want [[c2] [c3]]", got.Answers)
	}
}

func TestBooleanAnswers(t *testing.T) {
	in := loadBib(t)
	_, ts := newTestServer(t, in, nil)
	const q = `Author(x,"mnk@tku.jp",u), Author(x,"mnk@gm.com",u2)`

	var got AnswersResponse
	code, _ := post(t, ts, "/v1/answers", AnswersRequest{Query: q, Semantics: "possible"}, &got)
	if code != http.StatusOK || got.Boolean == nil || !*got.Boolean {
		t.Errorf("possible boolean: code %d, resp %+v", code, got)
	}
	got = AnswersResponse{}
	code, _ = post(t, ts, "/v1/answers", AnswersRequest{Query: q, Semantics: "certain"}, &got)
	if code != http.StatusOK || got.Boolean == nil || *got.Boolean {
		t.Errorf("certain boolean: code %d, resp %+v", code, got)
	}
}

func TestExplainMatchesOracle(t *testing.T) {
	in := loadBib(t)
	oeng := loadBib(t).oracle(t)
	_, ts := newTestServer(t, in, nil)
	oin := oeng.DB().Interner()

	for _, pair := range [][2]string{{"a1", "a2"}, {"p4", "p5"}, {"c3", "c4"}} {
		a, _ := oin.Lookup(pair[0])
		b, _ := oin.Lookup(pair[1])
		ox, err := oeng.ExplainMergeCtx(context.Background(), a, b)
		if err != nil {
			t.Fatal(err)
		}
		var got ExplainResponse
		code, _ := post(t, ts, "/v1/explain", ExplainRequest{A: pair[0], B: pair[1]}, &got)
		if code != http.StatusOK {
			t.Fatalf("explain %v status = %d", pair, code)
		}
		if got.Status != ox.Status.String() {
			t.Errorf("explain %v status = %q, want %q", pair, got.Status, ox.Status.String())
		}
		if got.Text != ox.Format(oin) {
			t.Errorf("explain %v text differs from oracle:\n%s\n---\n%s", pair, got.Text, ox.Format(oin))
		}
	}
}

func TestBadRequests(t *testing.T) {
	in := loadBib(t)
	_, ts := newTestServer(t, in, nil)

	cases := []struct {
		path string
		body string
	}{
		{"/v1/answers", `{"query":""}`},
		{"/v1/answers", `{"query":"(x) : Nope(x)"}`},
		{"/v1/answers", `{"query":"(x) : Author(x,e,u)","semantics":"maybe"}`},
		{"/v1/explain", `{"a":"a1","b":"zzz"}`},
		{"/v1/explain", `{"a":"a1","b":"a1"}`},
		{"/v1/explain", `{"a":"","b":"a1"}`},
		{"/v1/merges/certain", `{not json`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var env Envelope
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		json.Unmarshal(raw, &env)
		if resp.StatusCode != http.StatusBadRequest || env.Error == "" {
			t.Errorf("%s %s: status %d body %s, want 400 with error", c.path, c.body, resp.StatusCode, raw)
		}
	}
}

func TestBudgetExhausted(t *testing.T) {
	in := loadBib(t)
	s, ts := newTestServer(t, in, func(c *Config) { c.MaxStates = 1 })

	var got SolutionsResponse
	code, _ := post(t, ts, "/v1/solutions/maximal", nil, &got)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", code)
	}
	if !got.Interrupted || got.Error == "" {
		t.Errorf("interrupted marker missing: %+v", got.Envelope)
	}
	if n := s.Stats().Counter(obs.ServeInterrupted); n < 1 {
		t.Errorf("serve.interrupted = %d, want >= 1", n)
	}
	// Interrupted responses are never cached.
	if got := s.cache.len(); got != 0 {
		t.Errorf("cache holds %d entries after a 413", got)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	in := loadBib(t)
	_, ts := newTestServer(t, in, func(c *Config) {
		c.DefaultTimeout = time.Nanosecond
		c.MaxTimeout = time.Nanosecond
	})
	var got MergesResponse
	code, _ := post(t, ts, "/v1/merges/certain", nil, &got)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", code)
	}
	if !got.Interrupted {
		t.Error("interrupted marker missing on deadline")
	}
}

func TestResponseCacheHit(t *testing.T) {
	in := loadBib(t)
	s, ts := newTestServer(t, in, nil)

	req := AnswersRequest{Query: "(x) : Conference(x,n,y), Chair(x,a)"}
	_, first := post(t, ts, "/v1/answers", req, nil)

	// Different timeout, same canonical form: must hit the same entry.
	req.TimeoutMS = 30_000
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/answers", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	second, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Cache") != "hit" {
		t.Error("second identical request missed the cache")
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cached body differs:\n%s\n---\n%s", first, second)
	}
	snap := s.Stats()
	if snap.Counter(obs.ServeCacheHits) < 1 || snap.Counter(obs.ServeCacheMisses) < 1 {
		t.Errorf("cache counters: hits %d misses %d", snap.Counter(obs.ServeCacheHits), snap.Counter(obs.ServeCacheMisses))
	}
}

func TestCacheDisabled(t *testing.T) {
	in := loadFig1(t)
	s, ts := newTestServer(t, in, func(c *Config) { c.CacheSize = -1 })
	_, first := post(t, ts, "/v1/merges/certain", nil, nil)
	code, second := post(t, ts, "/v1/merges/certain", nil, nil)
	if code != http.StatusOK || !bytes.Equal(first, second) {
		t.Errorf("disabled-cache responses differ: %d %s vs %s", code, first, second)
	}
	if s.cache != nil {
		t.Error("negative CacheSize did not disable the cache")
	}
}

func TestMetricsJSONEndpoint(t *testing.T) {
	in := loadFig1(t)
	_, ts := newTestServer(t, in, nil)
	post(t, ts, "/v1/merges/certain", nil, nil)

	var snap obs.Snapshot
	code, _ := post(t, ts, "/metrics.json", nil, &snap)
	if code != http.StatusOK {
		t.Fatalf("metrics.json status = %d", code)
	}
	if snap.Counter(obs.ServeRequests) < 1 {
		t.Errorf("snapshot missing serve.requests: %+v", snap.Counters)
	}
	if snap.GaugeValue(obs.ServeWorkers) != 4 {
		t.Errorf("serve.workers gauge = %d", snap.GaugeValue(obs.ServeWorkers))
	}
	// The snapshot carries the request-latency histogram for the
	// endpoint just exercised, consistent with its duration summary.
	h, ok := snap.Histograms[obs.ServeRequestPrefix+"merges/certain"]
	if !ok || h.Count < 1 {
		t.Errorf("missing per-endpoint histogram: %+v", snap.Histograms)
	}
	if snap.Histograms[obs.SpanServeRequest].Count != snap.Durations[obs.SpanServeRequest].Count {
		t.Errorf("histogram/duration count mismatch for %s", obs.SpanServeRequest)
	}
}

func TestShutdownRefusesNewRequests(t *testing.T) {
	in := loadFig1(t)
	s, ts := newTestServer(t, in, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("idle shutdown: %v", err)
	}
	var env Envelope
	code, _ := post(t, ts, "/v1/merges/certain", nil, &env)
	if code != http.StatusServiceUnavailable || env.Error == "" {
		t.Errorf("post-shutdown request: status %d, env %+v", code, env)
	}
	var h HealthResponse
	post(t, ts, "/healthz", nil, &h)
	if !h.Draining {
		t.Error("healthz does not report draining")
	}
}

func TestMethodAndEmptyBody(t *testing.T) {
	in := loadFig1(t)
	_, ts := newTestServer(t, in, nil)
	// GET with no body must behave like the zero request.
	resp, err := http.Get(ts.URL + "/v1/merges/certain")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("bare GET status = %d", resp.StatusCode)
	}
	var got MergesResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Semantics != "certain" {
		t.Errorf("bare GET semantics = %q", got.Semantics)
	}
}

func ExampleFingerprint() {
	f := fixtures.New()
	fmt.Println(len(Fingerprint(f.DB)) > 0)
	// Output: true
}
