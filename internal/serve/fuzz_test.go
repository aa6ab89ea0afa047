package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/db"
	"repro/internal/fixtures"
)

// FuzzFactsBody posts arbitrary bodies to POST /v1/facts of one mutable
// Figure 1 server. The server never answers 5xx; a 400 or 413 leaves
// the served snapshot unchanged; a 200 advances the epoch by one, to
// the fingerprint of an independent db.Apply of the decoded batch on
// the previous epoch's database.
func FuzzFactsBody(f *testing.F) {
	for _, body := range []string{
		``,
		`{}`,
		`{"insert":[{"rel":"Author","args":["a9","x@y.z","Oslo"]}]}`,
		`{"retract":[{"rel":"Author","args":["a6","` + fixtures.E6 + `","Tokyo"]}],
		  "insert":[{"rel":"Author","args":["a6","` + fixtures.E6 + `","Osaka"]}]}`,
		`{"insert":[{"rel":"NoSuchRel","args":["a"]}]}`,
		`{"insert":[{"rel":"Author","args":null}]}`,
		`{"retract":[{"rel":"Author","args":["a1","a2"]}]}`,
		`{"insert":[{"rel":"Author","args":["a\u0000","",""]}],"timeout_ms":-1}`,
		`{"insert":`,
		`[]`,
	} {
		f.Add([]byte(body))
	}
	// Fuzzed batches accumulate, and the resolution problems are
	// NP-hard, so some batch sequence can make an epoch's lattice
	// exponential. The state budget bounds each epoch's background
	// resolution, which this harness waits for but does not judge.
	s, ts := newTestServer(f, loadFig1(f), func(c *Config) {
		c.Mutable = true
		c.MaxStates = 1 << 8
	})
	f.Fuzz(func(t *testing.T, body []byte) {
		prev := s.cur.Load().snap
		resp, err := http.Post(ts.URL+"/v1/facts", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		cur := s.cur.Load()
		switch resp.StatusCode {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if cur.snap != prev {
				t.Fatalf("status %d (%s) replaced the served snapshot", resp.StatusCode, raw)
			}
		case http.StatusOK:
			<-cur.ready // one epoch resolves at a time
			var fr FactsResponse
			if err := json.Unmarshal(raw, &fr); err != nil {
				t.Fatalf("200 with bad JSON %q: %v", raw, err)
			}
			var req FactsRequest
			if len(bytes.TrimSpace(body)) > 0 {
				if err := json.Unmarshal(body, &req); err != nil {
					t.Fatalf("200 for a body that does not decode: %v", err)
				}
			}
			nd, _, _, err := db.Apply(prev.DB(), factSpecs(req.Insert), factSpecs(req.Retract))
			if err != nil {
				t.Fatalf("200 for a batch db.Apply rejects: %v", err)
			}
			if fr.Epoch != prev.Epoch()+1 || cur.snap.Epoch() != fr.Epoch {
				t.Fatalf("epoch %d -> response %d, served %d; want one step", prev.Epoch(), fr.Epoch, cur.snap.Epoch())
			}
			if want := nd.Fingerprint(); fr.Fingerprint != want || cur.snap.Fingerprint() != want {
				t.Fatalf("fingerprint: response %s, served %s, independent apply %s", fr.Fingerprint, cur.snap.Fingerprint(), want)
			}
		default:
			t.Fatalf("status %d (%s), want 200, 400 or 413", resp.StatusCode, raw)
		}
	})
}
