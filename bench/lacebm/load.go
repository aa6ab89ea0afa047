package main

// load.go is the load generator: closed-loop clients, each owning one
// keep-alive connection, all in this one process.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
)

// clients is the closed-loop client count: one per CPU of the 2-CPU
// machine the bounds were measured on, so the generator never runs more
// connections than there are processors.
const clients = 2

// newClient returns an HTTP client bound to a single keep-alive
// connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
	cache  string // X-Cache header
	err    error
}

func (r reply) String() string {
	if r.err != nil {
		return r.err.Error()
	}
	return fmt.Sprintf("status %d", r.status)
}

// post sends one request and reads the whole response. A non-empty
// requestID is sent as X-Request-ID.
func post(cl *http.Client, url, body, requestID string) reply {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewBufferString(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set(serve.RequestIDHeader, requestID)
	}
	resp, err := cl.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: raw, cache: resp.Header.Get("X-Cache"), err: err}
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(cl *http.Client, base string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := cl.Get(base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not OK after 60s (last error: %v)", base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// opResult is one measured operation.
type opResult struct {
	client, seq int
	start, end  time.Time
	ok          bool
	why         string // failure description
	// Per-workload detail: the request form and cache disposition on the
	// read workloads, the write acknowledgement on write-mixed.
	key   int
	cache string
	ack   *ack
}

func (o opResult) lat() time.Duration { return o.end.Sub(o.start) }

// closedLoop runs op on every client back to back until d has passed,
// and returns every client's results plus the wall time from the start
// until the last operation completed.
func closedLoop(d time.Duration, op func(client, seq int) opResult) ([]opResult, time.Duration) {
	start := time.Now()
	until := start.Add(d)
	per := make([][]opResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(until); i++ {
				per[c] = append(per[c], op(c, i))
			}
		}(c)
	}
	wg.Wait()
	var all []opResult
	last := start
	for _, rs := range per {
		all = append(all, rs...)
		for _, r := range rs {
			if r.end.After(last) {
				last = r.end
			}
		}
	}
	return all, last.Sub(start)
}

// sequence is a client's seeded request order: successive random
// permutations of n request forms, so every form is sent equally often
// and no two clients (or seeds) follow the same order.
type sequence struct {
	rng  *rand.Rand
	n    int
	perm []int
}

func newSequence(seed int64, client, n int) *sequence {
	return &sequence{rng: rand.New(rand.NewSource(seed*7919 + int64(client))), n: n}
}

func (s *sequence) next() int {
	if len(s.perm) == 0 {
		s.perm = s.rng.Perm(s.n)
	}
	k := s.perm[0]
	s.perm = s.perm[1:]
	return k
}
