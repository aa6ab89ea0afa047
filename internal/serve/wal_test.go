package serve

// wal_test.go pins the write-ahead contract at the HTTP layer: the
// mutation record reaches the log before the epoch publishes, a failed
// WAL append is a 500 with no epoch advance, best-effort audit drops
// are counted, and InitialEpoch resumes a recovered lineage.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/audit"
	"repro/internal/obs"
)

// epochProbe is an audit sink that records the server's *published*
// epoch at the moment each audit write lands — the observable ordering
// of WAL append vs. epoch publish.
type epochProbe struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	epochAt []uint64
	epoch   func() uint64
}

func (p *epochProbe) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.epochAt = append(p.epochAt, p.epoch())
	return p.buf.Write(b)
}

func TestWALAppendsBeforePublish(t *testing.T) {
	in := loadFig1(t)
	probe := &epochProbe{}
	var s *Server
	probe.epoch = func() uint64 { return s.Epoch() }
	s, ts := newTestServer(t, in, func(c *Config) {
		c.Mutable = true
		c.WAL = true
		c.Audit = audit.New(probe)
	})

	for i := 1; i <= 3; i++ {
		code, fr := postFacts(t, ts, FactsRequest{
			Insert:  []FactJSON{{Rel: "Author", Args: []string{"a9", "x@y.z", "Oslo"}}},
			Retract: []FactJSON{{Rel: "Author", Args: []string{"a9", "x@y.z", "Oslo"}}},
		})
		if code != http.StatusOK {
			t.Fatalf("batch %d: status %d (%+v)", i, code, fr)
		}
		if fr.Epoch != uint64(i) {
			t.Fatalf("batch %d produced epoch %d", i, fr.Epoch)
		}
	}

	probe.mu.Lock()
	defer probe.mu.Unlock()
	if len(probe.epochAt) != 3 {
		t.Fatalf("%d audit writes for 3 mutations", len(probe.epochAt))
	}
	for i, at := range probe.epochAt {
		// Record for epoch i+1 must be written while the server still
		// serves epoch i: durable strictly before visible.
		if at != uint64(i) {
			t.Errorf("record %d written at published epoch %d, want %d (append must precede publish)",
				i, at, i)
		}
	}
	recs, err := audit.VerifyRecords(bytes.NewReader(probe.buf.Bytes()))
	if err != nil {
		t.Fatalf("WAL does not verify: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("WAL holds %d records, want 3", len(recs))
	}
}

// brokenSink fails every write.
type brokenSink struct{}

func (brokenSink) Write([]byte) (int, error) { return 0, errors.New("disk gone") }

func TestWALFailureIs500AndNoPublish(t *testing.T) {
	in := loadFig1(t)
	s, ts := newTestServer(t, in, func(c *Config) {
		c.Mutable = true
		c.WAL = true
		c.Audit = audit.New(brokenSink{})
	})
	fpBefore := s.DBFingerprint()

	for i := 0; i < 2; i++ { // second attempt exercises the poisoned log
		var env Envelope
		code, _ := post(t, ts, "/v1/facts", FactsRequest{
			Insert: []FactJSON{{Rel: "Author", Args: []string{"a9", "x@y.z", "Oslo"}}},
		}, &env)
		if code != http.StatusInternalServerError {
			t.Fatalf("attempt %d: WAL failure returned %d, want 500", i, code)
		}
		if !strings.Contains(env.Error, "write-ahead") {
			t.Errorf("attempt %d: error %q does not name the WAL", i, env.Error)
		}
	}
	if got := s.Epoch(); got != 0 {
		t.Fatalf("failed WAL writes advanced the epoch to %d", got)
	}
	if got := s.DBFingerprint(); got != fpBefore {
		t.Fatal("failed WAL writes changed the served fingerprint")
	}
	// The unlogged batch must be invisible to readers too.
	var hr HealthResponse
	if code, _ := post(t, ts, "/healthz", nil, &hr); code != http.StatusOK {
		t.Fatal("healthz failed")
	}
	if hr.Epoch != 0 || hr.Fingerprint != fpBefore {
		t.Fatalf("healthz after failed WAL write: %+v", hr)
	}
}

// TestAuditDropCounted: without WAL mode the same failure is
// best-effort — the mutation succeeds and the lost record is counted.
func TestAuditDropCounted(t *testing.T) {
	in := loadFig1(t)
	s, ts := newTestServer(t, in, func(c *Config) {
		c.Mutable = true
		c.Audit = audit.New(brokenSink{})
	})
	code, fr := postFacts(t, ts, FactsRequest{
		Insert: []FactJSON{{Rel: "Author", Args: []string{"a9", "x@y.z", "Oslo"}}},
	})
	if code != http.StatusOK || fr.Epoch != 1 {
		t.Fatalf("best-effort mutation failed: %d %+v", code, fr)
	}
	snap := s.Stats()
	if got := snap.Counter(obs.ServeAuditDropped); got < 1 {
		t.Fatalf("serve.audit.dropped = %d, want >= 1", got)
	}
	if got := snap.Counter(obs.ServeAuditRecords); got != 0 {
		t.Fatalf("serve.audit.records = %d on a broken sink", got)
	}
}

func TestInitialEpochResumes(t *testing.T) {
	in := loadFig1(t)
	s, ts := newTestServer(t, in, func(c *Config) {
		c.Mutable = true
		c.InitialEpoch = 5
	})
	if got := s.Epoch(); got != 5 {
		t.Fatalf("initial epoch = %d, want 5", got)
	}
	code, fr := postFacts(t, ts, FactsRequest{
		Insert: []FactJSON{{Rel: "Author", Args: []string{"a9", "x@y.z", "Oslo"}}},
	})
	if code != http.StatusOK || fr.Epoch != 6 {
		t.Fatalf("first batch after resume: %d, epoch %d; want 200, 6", code, fr.Epoch)
	}
}

// TestReadOnlyServerKeepsNoTop: a read-only server numbers its snapshot
// InitialEpoch, as laced -recover without -mutable does, and its
// resolved engine keeps no lattice top, since no epoch succeeds it; a
// mutable server's keeps its top for the next epoch to carry. The
// core.shard.plan span reports which in top_kept.
func TestReadOnlyServerKeepsNoTop(t *testing.T) {
	for _, mutable := range []bool{false, true} {
		reg := obs.NewRegistry()
		var trace bytes.Buffer
		reg.TraceTo(&trace)
		s, _ := newTestServer(t, loadFig1(t), func(c *Config) {
			c.Mutable = mutable
			c.InitialEpoch = 3
			c.Recorder = reg
		})
		<-s.cur.Load().ready
		if got := s.Epoch(); got != 3 {
			t.Fatalf("mutable=%v: epoch = %d, want 3", mutable, got)
		}
		if got := s.ms != nil; got != mutable {
			t.Fatalf("mutable=%v: server holds a mutable session: %v", mutable, got)
		}
		var plans []float64
		dec := json.NewDecoder(&trace)
		for dec.More() {
			var ev struct {
				Span  string
				Attrs map[string]any
			}
			if err := dec.Decode(&ev); err != nil {
				t.Fatal(err)
			}
			if ev.Span == obs.SpanShardPlan {
				kept, _ := ev.Attrs["top_kept"].(float64)
				plans = append(plans, kept)
			}
		}
		want := 0.0
		if mutable {
			want = 1
		}
		if len(plans) != 1 || plans[0] != want {
			t.Fatalf("mutable=%v: top_kept of the resolved epoch = %v, want [%v]", mutable, plans, want)
		}
	}
}

func TestWALConfigValidation(t *testing.T) {
	in := loadFig1(t)
	base := Config{DB: in.db, Spec: in.spec, Sims: in.sims}

	cfg := base
	cfg.Mutable = true
	cfg.WAL = true
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "Audit") {
		t.Fatalf("WAL without Audit accepted: %v", err)
	}

	cfg = base
	cfg.WAL = true
	cfg.Audit = audit.New(&bytes.Buffer{})
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "Mutable") {
		t.Fatalf("WAL without Mutable accepted: %v", err)
	}
}
