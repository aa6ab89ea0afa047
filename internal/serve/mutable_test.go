package serve

// mutable_test.go covers the streaming server: POST /v1/facts, epoch
// advancement, response-cache staleness across mutations, and an e2e
// differential check that a mutated server answers exactly like an
// oracle engine built from scratch over the same final instance.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/fixtures"
	"repro/internal/rules"
)

func postFacts(t *testing.T, ts *httptest.Server, req FactsRequest) (int, FactsResponse) {
	t.Helper()
	var resp FactsResponse
	code, _ := post(t, ts, "/v1/facts", req, &resp)
	return code, resp
}

func TestFactsReadOnly(t *testing.T) {
	in := loadFig1(t)
	_, ts := newTestServer(t, in, nil) // Mutable not set
	var env Envelope
	code, _ := post(t, ts, "/v1/facts", FactsRequest{
		Insert: []FactJSON{{Rel: "Author", Args: []string{"a9", "x@y.z", "Oslo"}}},
	}, &env)
	if code != http.StatusForbidden {
		t.Fatalf("facts on read-only server: status = %d, want 403", code)
	}
	if !strings.Contains(env.Error, "read-only") {
		t.Errorf("error = %q, want read-only message", env.Error)
	}
}

func TestFactsRejectsBadBatch(t *testing.T) {
	in := loadFig1(t)
	s, ts := newTestServer(t, in, func(c *Config) { c.Mutable = true })
	var env Envelope
	code, _ := post(t, ts, "/v1/facts", FactsRequest{
		Insert: []FactJSON{{Rel: "NoSuchRel", Args: []string{"a"}}},
	}, &env)
	if code != http.StatusBadRequest {
		t.Fatalf("bad batch: status = %d, want 400", code)
	}
	if env.Error == "" {
		t.Error("bad batch: empty error")
	}
	if got := s.Epoch(); got != 0 {
		t.Errorf("epoch after rejected batch = %d, want 0", got)
	}
}

// mergesWithCacheHeader fetches /v1/merges/possible and returns the
// X-Cache header alongside the decoded response.
func mergesWithCacheHeader(t *testing.T, ts *httptest.Server) (string, MergesResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/merges/possible", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("merges status = %d", resp.StatusCode)
	}
	var mr MergesResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatalf("merges: bad JSON: %v", err)
	}
	return resp.Header.Get("X-Cache"), mr
}

// TestCacheStalenessAcrossMutation pins the response-cache contract on
// the mutation path: miss, hit, then POST /v1/facts changes the
// fingerprint (and with it every cache key), then miss again with fresh
// results, then hit again on the new epoch.
func TestCacheStalenessAcrossMutation(t *testing.T) {
	in := loadFig1(t)
	s, ts := newTestServer(t, in, func(c *Config) { c.Mutable = true })

	xc, first := mergesWithCacheHeader(t, ts)
	if xc == "hit" {
		t.Fatal("first request reported a cache hit")
	}
	xc, _ = mergesWithCacheHeader(t, ts)
	if xc != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", xc)
	}

	fpBefore := s.DBFingerprint()
	code, fr := postFacts(t, ts, FactsRequest{
		Retract: []FactJSON{{Rel: "Author", Args: []string{"a6", fixtures.E6, "Tokyo"}}},
		Insert:  []FactJSON{{Rel: "Author", Args: []string{"a6", fixtures.E6, "Osaka"}}},
	})
	if code != http.StatusOK {
		t.Fatalf("facts status = %d: %+v", code, fr)
	}
	if fr.Epoch != 1 || fr.Inserted != 1 || fr.Retracted != 1 {
		t.Fatalf("facts response = %+v, want epoch 1, 1 insert, 1 retract", fr)
	}
	if fr.Fingerprint == fpBefore {
		t.Fatal("fingerprint unchanged by a content-changing batch")
	}
	if got := s.DBFingerprint(); got != fr.Fingerprint {
		t.Errorf("server fingerprint %q != response %q", got, fr.Fingerprint)
	}

	xc, second := mergesWithCacheHeader(t, ts)
	if xc == "hit" {
		t.Fatal("request after mutation served the stale cached epoch")
	}
	if len(second.Merges) == len(first.Merges) {
		// Moving a6 to Osaka breaks sigma2's same-institution premise
		// for the a6/a7 pair, so the possible-merge set must shrink.
		t.Errorf("possible merges unchanged after mutation: %d", len(second.Merges))
	}
	xc, _ = mergesWithCacheHeader(t, ts)
	if xc != "hit" {
		t.Fatalf("repeat request on the new epoch X-Cache = %q, want hit", xc)
	}

	var h HealthResponse
	if code, _ := post(t, ts, "/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	if h.Epoch != 1 || !h.Mutable {
		t.Errorf("healthz = %+v, want epoch 1, mutable", h)
	}
}

// TestMutableE2EMatchesOracle applies a batch sequence through POST
// /v1/facts (monolithic and sharded servers) and, after each epoch,
// checks merges and answers against a from-scratch oracle engine over
// an independently built copy of the same instance.
func TestMutableE2EMatchesOracle(t *testing.T) {
	batches := []FactsRequest{
		{
			Retract: []FactJSON{{Rel: "Author", Args: []string{"a6", fixtures.E6, "Tokyo"}}},
			Insert:  []FactJSON{{Rel: "Author", Args: []string{"a6", fixtures.E6, "Osaka"}}},
		},
		{
			Insert: []FactJSON{{Rel: "Author", Args: []string{"a8", fixtures.E6, "Tokyo"}}},
		},
		{
			Retract: []FactJSON{{Rel: "Author", Args: []string{"a6", fixtures.E6, "Osaka"}}},
			Insert:  []FactJSON{{Rel: "Author", Args: []string{"a6", fixtures.E6, "Tokyo"}}},
		},
	}
	for _, mode := range []struct {
		name    string
		sharded bool
	}{{"monolithic", false}, {"sharded", true}} {
		t.Run(mode.name, func(t *testing.T) {
			in := loadFig1(t)
			_, ts := newTestServer(t, in, func(c *Config) {
				c.Mutable = true
				c.Sharded = mode.sharded
			})

			// The oracle lineage: an independent parse of the fixture,
			// mutated by the same batches through db.Apply directly.
			ofix := loadFig1(t)
			od := ofix.db

			check := func(epoch uint64) {
				t.Helper()
				oeng, err := core.New(od, ofix.spec, ofix.sims, core.Options{Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				oin := od.Interner()
				for _, sem := range []string{"certain", "possible"} {
					var mr MergesResponse
					if code, _ := post(t, ts, "/v1/merges/"+sem, nil, &mr); code != http.StatusOK {
						t.Fatalf("epoch %d: merges/%s status = %d", epoch, sem, code)
					}
					pairs, err := oeng.CertainMergesCtx(context.Background())
					if sem == "possible" {
						pairs, err = oeng.PossibleMergesCtx(context.Background())
					}
					if err != nil {
						t.Fatal(err)
					}
					want := make([]string, 0, len(pairs))
					for _, p := range pairs {
						want = append(want, oin.Name(p.A)+"|"+oin.Name(p.B))
					}
					got := make([]string, 0, len(mr.Merges))
					for _, p := range mr.Merges {
						got = append(got, p.A+"|"+p.B)
					}
					sort.Strings(got)
					sort.Strings(want)
					if strings.Join(got, ",") != strings.Join(want, ",") {
						t.Errorf("epoch %d: merges/%s = %v, oracle %v", epoch, sem, got, want)
					}
				}

				var ar AnswersResponse
				q := AnswersRequest{Query: "(x, y) : CorrAuth(p, x), CorrAuth(p, y)", Semantics: "possible"}
				if code, _ := post(t, ts, "/v1/answers", q, &ar); code != http.StatusOK {
					t.Fatalf("epoch %d: answers status = %d", epoch, code)
				}
				oq, err := rules.ParseQuery(q.Query, od.Schema(), nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				tuples, err := oeng.PossibleAnswersCtx(context.Background(), oq)
				if err != nil {
					t.Fatal(err)
				}
				var want []string
				for _, tp := range tuples {
					row := make([]string, len(tp))
					for i, c := range tp {
						row[i] = oin.Name(c)
					}
					want = append(want, strings.Join(row, "|"))
				}
				var got []string
				for _, row := range ar.Answers {
					got = append(got, strings.Join(row, "|"))
				}
				sort.Strings(got)
				sort.Strings(want)
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("epoch %d: answers = %v, oracle %v", epoch, got, want)
				}
			}

			check(0)
			for i, b := range batches {
				code, fr := postFacts(t, ts, b)
				if code != http.StatusOK {
					t.Fatalf("batch %d: status = %d: %+v", i, code, fr)
				}
				if fr.Epoch != uint64(i+1) {
					t.Fatalf("batch %d: epoch = %d, want %d", i, fr.Epoch, i+1)
				}
				nd, _, _, err := db.Apply(od, factSpecs(b.Insert), factSpecs(b.Retract))
				if err != nil {
					t.Fatalf("batch %d: oracle apply: %v", i, err)
				}
				od = nd
				if got := Fingerprint(od); got != fr.Fingerprint {
					t.Fatalf("batch %d: oracle fingerprint %q != server %q", i, got, fr.Fingerprint)
				}
				check(fr.Epoch)
			}
		})
	}
}
