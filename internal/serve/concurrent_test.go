package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	wl "repro/internal/workload"
)

// wire is one request form of the randomized differential workload:
// an endpoint plus a JSON body (empty for the parameterless ones).
type wire struct {
	path string
	body string
}

// workload returns the request forms the concurrent clients draw from.
// Everything here succeeds with a 200, so every response has an oracle
// byte string to compare against.
func workload() []wire {
	return []wire{
		{"/v1/merges/certain", ""},
		{"/v1/merges/possible", ""},
		{"/v1/solutions/maximal", ""},
		{"/v1/answers", `{"query":"(x) : Conference(x,n,y), Chair(x,a)"}`},
		{"/v1/answers", `{"query":"(x) : Conference(x,n,y), Chair(x,a)","semantics":"possible"}`},
		{"/v1/answers", `{"query":"Author(x,\"mnk@tku.jp\",u), Author(x,\"mnk@gm.com\",u2)","semantics":"possible"}`},
		{"/v1/answers", `{"query":"(p,x) : Wrote(p,x,n), Author(x,e,u)"}`},
		{"/v1/explain", `{"a":"a1","b":"a2"}`},
		{"/v1/explain", `{"a":"p4","b":"p5"}`},
		{"/v1/explain", `{"a":"c3","b":"c4"}`},
	}
}

func fire(t testing.TB, client *http.Client, url string, w wire) (int, []byte) {
	t.Helper()
	var body io.Reader
	if w.body != "" {
		body = bytes.NewReader([]byte(w.body))
	}
	resp, err := client.Post(url+w.path, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestConcurrentClientsMatchSequentialOracle is the differential test
// the issue pins: randomized concurrent clients against a parallel,
// pooled server must produce responses byte-identical to a sequential
// (one worker, parallelism 1, cache off) oracle server — with the
// response cache both on and off.
func TestConcurrentClientsMatchSequentialOracle(t *testing.T) {
	in := loadBib(t)

	// Sequential oracle: one worker, sequential search, no cache.
	_, ots := newTestServer(t, loadBib(t), func(c *Config) {
		c.Workers = 1
		c.Parallelism = 1
		c.CacheSize = -1
	})
	oracle := make(map[wire][]byte)
	for _, w := range workload() {
		code, body := fire(t, http.DefaultClient, ots.URL, w)
		if code != http.StatusOK {
			t.Fatalf("oracle %s %s: status %d body %s", w.path, w.body, code, body)
		}
		oracle[w] = body
	}

	for _, mode := range []struct {
		name  string
		cache int
	}{{"cache-on", DefaultCacheSize}, {"cache-off", -1}} {
		t.Run(mode.name, func(t *testing.T) {
			_, ts := newTestServer(t, in, func(c *Config) {
				c.Workers = 4
				c.CacheSize = mode.cache
			})

			const clients = 8
			const perClient = 20
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for i := 0; i < clients; i++ {
				rng := rand.New(rand.NewSource(int64(i)*7919 + 17))
				wg.Add(1)
				go func() {
					defer wg.Done()
					forms := workload()
					for j := 0; j < perClient; j++ {
						w := forms[rng.Intn(len(forms))]
						code, body := fire(t, http.DefaultClient, ts.URL, w)
						if code != http.StatusOK {
							t.Errorf("%s %s: status %d", w.path, w.body, code)
							return
						}
						if !bytes.Equal(body, oracle[w]) {
							t.Errorf("%s %s: response differs from sequential oracle\ngot:  %s\nwant: %s",
								w.path, w.body, body, oracle[w])
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
		})
	}
}

// TestShutdownWaitsForResolution: a server with no request in flight
// drains at once, and Shutdown still returns only after the served
// epoch's background resolution has stopped, so no search outlives the
// server. At 5 000 entities the resolution takes far longer than the
// drain.
func TestShutdownWaitsForResolution(t *testing.T) {
	ds, err := wl.GenerateScale(wl.DefaultScaleConfig(3, 5000))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DB: ds.DB, Spec: ds.Spec, Sims: ds.Sims, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := s.cur.Load()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	select {
	case <-st.ready:
	default:
		t.Fatal("Shutdown returned while the epoch's resolution was still running")
	}
}

// TestShutdownBoundedByContext: Shutdown waits for a background
// resolution only until its ctx is done. Here the resolution blocks in
// its similarity metric until the test releases it: Shutdown with an
// expired ctx returns ctx.Err() meanwhile, and the resolution, cancelled
// by Shutdown, stops once released.
func TestShutdownBoundedByContext(t *testing.T) {
	ds, err := wl.GenerateScale(wl.DefaultScaleConfig(3, 200))
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	metric := func(a, b string) float64 {
		once.Do(func() { close(entered) })
		<-release
		return sim.NormalizedLevenshtein(a, b)
	}
	sims := sim.NewRegistry(sim.Threshold("approx", metric, 0.82))
	s, err := New(Config{DB: ds.DB, Spec: ds.Spec, Sims: sims, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := s.cur.Load()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	returned := make(chan error, 1)
	go func() { returned <- s.Shutdown(ctx) }()
	select {
	case err := <-returned:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Shutdown = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("Shutdown with an expired context waited for the blocked resolution")
	}
	close(release)
	select {
	case <-st.ready:
	case <-time.After(30 * time.Second):
		t.Fatal("the cancelled resolution did not stop")
	}
}

// TestShutdownDrainsInFlight: a long request admitted before Shutdown
// is cancelled by the abort path when the grace period lapses, the
// handler still answers (with the interrupted marker), and Shutdown
// returns. Afterward no handler goroutines remain.
func TestShutdownDrainsInFlight(t *testing.T) {
	in := loadBib(t)
	s, err := New(Config{DB: in.db, Spec: in.spec, Sims: in.sims, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := runtime.NumGoroutine()

	// Occupy both workers with requests that cannot finish in 10ms of
	// grace: no server deadline, large instance, but the client keeps
	// the connection open so only server abort can stop them.
	type result struct {
		code int
		body []byte
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/solutions/maximal", "application/json", nil)
			if err != nil {
				results <- result{}
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			results <- result{resp.StatusCode, raw}
		}()
	}
	// Give the requests time to be admitted (inflight counted).
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err = s.Shutdown(ctx)

	for i := 0; i < 2; i++ {
		r := <-results
		switch r.code {
		case http.StatusOK:
			// The search beat the drain; fine.
		case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			var env Envelope
			if jsonErr := json.Unmarshal(r.body, &env); jsonErr != nil || !env.Interrupted {
				t.Errorf("aborted request body %s: want interrupted envelope", r.body)
			}
		case 0:
			t.Error("in-flight request got no response at all")
		default:
			t.Errorf("in-flight request status = %d", r.code)
		}
	}
	if err != nil && err != context.DeadlineExceeded {
		t.Errorf("Shutdown error = %v", err)
	}

	// Leak check: handler and search goroutines must wind down. Close
	// the test frontend and the client's kept-alive connections first so
	// only server-side leaks would remain.
	ts.Close()
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 || time.Now().After(deadline) {
			if n > before+2 {
				t.Errorf("goroutines: %d before, %d after drain", before, n)
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPoolQueueing: more concurrent requests than workers all complete
// (excess requests queue on the pool rather than failing).
func TestPoolQueueing(t *testing.T) {
	in := loadFig1(t)
	_, ts := newTestServer(t, in, func(c *Config) {
		c.Workers = 1
		c.CacheSize = -1
	})
	const n = 6
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = fire(t, http.DefaultClient, ts.URL, wire{path: "/v1/merges/possible"})
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("request %d: status %d", i, code)
		}
	}
}
