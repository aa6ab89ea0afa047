package serve

// shard_test.go: end-to-end coverage of the server's sharded
// resolution — every reasoning endpoint must return the payload a
// monolithic core.Engine computes, byte for byte, merge audits must
// record the same justifications, resolved epochs must serve without
// further search, and the shard metrics must land in the registry.

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/obs"
	"repro/internal/rules"
	wl "repro/internal/workload"
)

// shardedRequests are the endpoint requests the differential replays
// besides the explanations: every decision endpoint, answers to three
// headed queries (one with an inequality), and a Boolean query under
// both semantics.
var shardedRequests = []struct {
	path string
	req  any
}{
	{"/v1/merges/certain", nil},
	{"/v1/merges/possible", nil},
	{"/v1/solutions/maximal", nil},
	{"/v1/answers", AnswersRequest{Query: `(x, y) : CorrAuth(p, x), CorrAuth(p, y)`}},
	{"/v1/answers", AnswersRequest{Query: `(a) : Chair(c, a)`, Semantics: "possible"}},
	{"/v1/answers", AnswersRequest{Query: `(x, y) : CorrAuth(p, x), CorrAuth(p, y), x != y`, Semantics: "possible"}},
	{"/v1/answers", AnswersRequest{Query: `Chair(c, a), Author(a, e, u)`}},
	{"/v1/answers", AnswersRequest{Query: `Chair(c, a), Author(a, e, u)`, Semantics: "possible"}},
}

// shardFixtures are the instances the sharded tests run over.
var shardFixtures = []struct {
	name string
	load func(testing.TB) instance
}{
	{"fig1", loadFig1},
	{"bib", loadBib},
}

// explainRequests explains every given possible merge, plus two pairs
// no maximal solution merges.
func explainRequests(possible []MergePair) []ExplainRequest {
	reqs := []ExplainRequest{{A: "c3", B: "c4"}, {A: "a1", B: "a4"}}
	for _, p := range possible {
		reqs = append(reqs, ExplainRequest{A: p.A, B: p.B})
	}
	return reqs
}

// monolithic computes the replies a server over an instance must give,
// by sequential calls on a monolithic core.Engine over its own parse of
// that instance, rendered through serve's response types as the
// handlers render them. It also collects the merge decisions the
// server's audit log must record for those requests, in order.
type monolithic struct {
	t         *testing.T
	in        instance
	eng       *core.Engine
	decisions []string
}

// reply returns the reference body for one request and records the
// audit decisions the request makes.
func (m *monolithic) reply(path string, req any) []byte {
	m.t.Helper()
	ctx := context.Background()
	eng := m.eng.Fork()
	in := m.in.db.Interner()
	var resp any
	var err error
	switch path {
	case "/v1/merges/certain", "/v1/merges/possible":
		sem := strings.TrimPrefix(path, "/v1/merges/")
		var pairs []eqrel.Pair
		if sem == "certain" {
			pairs, err = eng.CertainMergesCtx(ctx)
		} else {
			pairs, err = eng.PossibleMergesCtx(ctx)
		}
		r := MergesResponse{Semantics: sem, Merges: []MergePair{}, Count: len(pairs)}
		for _, p := range pairs {
			r.Merges = append(r.Merges, MergePair{A: in.Name(p.A), B: in.Name(p.B)})
			m.audit("merges/"+sem, sem, p)
		}
		resp = r
	case "/v1/solutions/maximal":
		var ms []*eqrel.Partition
		ms, err = eng.MaximalSolutionsCtx(ctx)
		r := SolutionsResponse{Solutions: []SolutionJSON{}, Count: len(ms)}
		for _, sol := range ms {
			js := SolutionJSON{Classes: [][]string{}}
			for _, cls := range sol.NontrivialClasses() {
				js.Classes = append(js.Classes, constNames(in, cls))
			}
			r.Solutions = append(r.Solutions, js)
		}
		resp = r
	case "/v1/answers":
		ar := req.(AnswersRequest)
		r := AnswersResponse{Semantics: ar.Semantics, Query: ar.Query}
		if r.Semantics == "" {
			r.Semantics = "certain"
		}
		q, perr := rules.ParseQuery(ar.Query, m.in.db.Schema(), in.Clone(), m.in.sims)
		if perr != nil {
			m.t.Fatal(perr)
		}
		answers := eng.PossibleAnswersCtx
		if r.Semantics == "certain" {
			answers = eng.CertainAnswersCtx
		}
		tuples, aerr := answers(ctx, q)
		err = aerr
		if len(q.Head) == 0 {
			yes := len(tuples) > 0
			r.Boolean = &yes
		} else {
			r.Answers = [][]string{}
			for _, tp := range tuples {
				r.Answers = append(r.Answers, constNames(in, tp))
			}
			r.Count = len(r.Answers)
		}
		resp = r
	case "/v1/explain":
		er := req.(ExplainRequest)
		a, _ := in.Lookup(er.A)
		b, _ := in.Lookup(er.B)
		var x *core.MergeExplanation
		x, err = eng.ExplainMergeCtx(ctx, a, b)
		if err == nil {
			resp = ExplainResponse{Pair: MergePair{A: er.A, B: er.B}, Status: x.Status.String(), Text: x.Format(in)}
			switch x.Status {
			case core.Certain:
				m.audit("explain", audit.DecisionCertain, x.Pair)
			case core.PossibleOnly:
				m.audit("explain", audit.DecisionPossible, x.Pair)
			}
		}
	default:
		m.t.Fatalf("no reference for %s", path)
	}
	if err != nil {
		m.t.Fatalf("monolithic %s %v: %v", path, req, err)
	}
	raw, err := json.Marshal(resp)
	if err != nil {
		m.t.Fatal(err)
	}
	return append(raw, '\n')
}

// audit records the decision the server must log for one merge pair,
// justified by Engine.ExplainMergeCtx.
func (m *monolithic) audit(endpoint, decision string, p eqrel.Pair) {
	m.t.Helper()
	x, err := m.eng.Fork().ExplainMergeCtx(context.Background(), p.A, p.B)
	if err != nil {
		m.t.Fatal(err)
	}
	rec := mergeRecord(&reqMeta{endpoint: endpoint}, m.in.db.Interner(), decision, p, x.Justification)
	m.decisions = append(m.decisions, decisionLine(rec))
}

// constNames renders constants by name.
func constNames(in *db.Interner, cs []db.Const) []string {
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = in.Name(c)
	}
	return names
}

// TestShardedEndpointsDifferential: every reasoning endpoint of a
// server over both fixtures answers byte for byte what a monolithic
// core.Engine computes, explanations included, and the server's audit
// log records the same merge decisions and justifications.
func TestShardedEndpointsDifferential(t *testing.T) {
	for _, fixture := range shardFixtures {
		t.Run(fixture.name, func(t *testing.T) {
			var log bytes.Buffer
			_, ts := newTestServer(t, fixture.load(t), func(cfg *Config) {
				cfg.Audit = audit.New(&log)
			})
			ref := fixture.load(t)
			mono := &monolithic{t: t, in: ref, eng: ref.oracle(t)}
			check := func(path string, req any) []byte {
				want := mono.reply(path, req)
				status, got := post(t, ts, path, req, nil)
				if status != 200 || string(want) != string(got) {
					t.Errorf("%s %v: server (%d) %s\nmonolithic %s", path, req, status, got, want)
				}
				return want
			}
			var possible MergesResponse
			for _, r := range shardedRequests {
				if want := check(r.path, r.req); r.path == "/v1/merges/possible" {
					if err := json.Unmarshal(want, &possible); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, r := range explainRequests(possible.Merges) {
				check("/v1/explain", r)
			}
			if len(mono.decisions) == 0 {
				t.Fatal("the reference audits no merge decisions")
			}
			if want, got := strings.Join(mono.decisions, "\n"), strings.Join(auditDecisions(t, log.String()), "\n"); want != got {
				t.Errorf("audit decisions diverge:\n  monolithic %q\n  server     %q", want, got)
			}
		})
	}
}

// TestShardedEndpointsSearchFree: once a sharded epoch is resolved,
// every reasoning endpoint — audited merges, answers and explanations
// included — serves from its shards without running another search.
func TestShardedEndpointsSearchFree(t *testing.T) {
	for _, fixture := range shardFixtures {
		t.Run(fixture.name, func(t *testing.T) {
			rec := obs.NewRegistry()
			var log bytes.Buffer
			s, ts := newTestServer(t, fixture.load(t), func(cfg *Config) {
				cfg.Recorder = rec
				cfg.Audit = audit.New(&log)
				cfg.CacheSize = -1
			})
			st := s.cur.Load()
			if err := s.epochReady(context.Background(), st); err != nil {
				t.Fatal(err)
			}
			if stats, err := st.snap.Sharded().Stats(); err != nil || stats.Monolithic {
				t.Skipf("fixture resolves monolithically (err %v)", err)
			}
			before := rec.Snapshot().Counter(obs.CoreSearchStates)
			for _, r := range shardedRequests {
				if status, body := post(t, ts, r.path, r.req, nil); status != 200 {
					t.Fatalf("%s: status %d body %s", r.path, status, body)
				}
			}
			var possible MergesResponse
			post(t, ts, "/v1/merges/possible", nil, &possible)
			for _, r := range explainRequests(possible.Merges) {
				if status, body := post(t, ts, "/v1/explain", r, nil); status != 200 {
					t.Fatalf("explain %v: status %d body %s", r, status, body)
				}
			}
			if after := rec.Snapshot().Counter(obs.CoreSearchStates); after != before {
				t.Errorf("resolved endpoints explored %d search states, want 0", after-before)
			}
		})
	}
}

// TestShardedAuditAtScale: an audited sharded server answers both merge
// endpoints over a generated instance well within a request deadline,
// justifying every recorded merge from the epoch's shards. At 200
// entities a whole-instance search for the justifications takes longer
// than the deadline.
func TestShardedAuditAtScale(t *testing.T) {
	const deadline = 5 * time.Second
	ds, err := wl.GenerateScale(wl.DefaultScaleConfig(5, 200))
	if err != nil {
		t.Fatal(err)
	}
	var log syncBuffer
	s, ts := newTestServer(t, instance{db: ds.DB, spec: ds.Spec, sims: ds.Sims}, func(cfg *Config) {
		cfg.Audit = audit.New(&log)
	})
	if err := s.epochReady(context.Background(), s.cur.Load()); err != nil {
		t.Fatal(err)
	}
	for _, sem := range []string{"certain", "possible"} {
		start := time.Now()
		var resp MergesResponse
		status, body := post(t, ts, "/v1/merges/"+sem, Request{TimeoutMS: int(deadline / time.Millisecond)}, &resp)
		if took := time.Since(start); status != 200 || took > deadline {
			t.Fatalf("merges/%s: status %d after %v (deadline %v): %.200s", sem, status, took, deadline, body)
		}
		if resp.Count == 0 {
			t.Fatalf("merges/%s: no merges to audit", sem)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		var rec audit.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil || len(rec.Justification) == 0 {
			t.Errorf("unjustified audit record (%v): %s", err, line)
		}
	}
}

// auditDecisions renders each merge-decision record of an audit log
// without its request-scoped fields (sequence, time, request ID, chain
// hashes), one string per record.
func auditDecisions(t *testing.T, log string) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(log), "\n") {
		if line == "" {
			continue
		}
		var rec audit.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad audit line %q: %v", line, err)
		}
		out = append(out, decisionLine(rec))
	}
	return out
}

// decisionLine renders a merge-decision record without its
// request-scoped fields.
func decisionLine(rec audit.Record) string {
	return strings.Join(append([]string{rec.Endpoint, rec.Decision, rec.A, rec.B, rec.Rule},
		rec.Justification...), " | ")
}

// TestShardedMetrics: resolution records the shard gauges into the
// server's registry.
func TestShardedMetrics(t *testing.T) {
	rec := obs.NewRegistry()
	s, ts := newTestServer(t, loadFig1(t), func(cfg *Config) {
		cfg.Recorder = rec
	})
	if status, body := post(t, ts, "/v1/merges/certain", nil, nil); status != 200 {
		t.Fatalf("status %d body %s", status, body)
	}
	snap := s.Stats()
	if snap.GaugeValue(obs.CoreShardRounds) < 1 {
		t.Errorf("shard rounds gauge = %d, want >= 1", snap.GaugeValue(obs.CoreShardRounds))
	}
	if snap.Counter(obs.CoreShardSolves) < 1 {
		t.Errorf("shard solves counter = %d, want >= 1", snap.Counter(obs.CoreShardSolves))
	}
}
