package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

// corrupting rewrites one byte of every /v1/merges/certain response.
func corrupting(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/merges/certain" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := bytes.Replace(rec.Body.Bytes(), []byte(`"count":`), []byte(`"count":9`), 1)
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// TestCorruptedBodyCountsAsFailure serves a real read-cold target whose
// merges/certain bodies are corrupted in flight and checks that exactly
// those requests count as failed operations.
func TestCorruptedBodyCountsAsFailure(t *testing.T) {
	panel, err := prepareRead(11, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst := panel[0]
	_, base, stop, err := listenTarget("read-cold", inst.genSeed, "", corrupting)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	r := newResult("read-cold", 11, false)
	op := readOp(base, inst.reqs, 11, nil)
	corrupted := 0
	// A client's first len(reqs) requests are one permutation of the
	// forms: each is sent exactly once.
	for i := range inst.reqs {
		o := op(0, i)
		r.Attempted++
		if !o.ok {
			r.fail("%s: %s", inst.reqs[o.key].path, o.why)
		}
		if inst.reqs[o.key].path == "/v1/merges/certain" {
			corrupted++
		}
	}
	if corrupted != 1 || r.Failed != 1 || r.correct() {
		t.Fatalf("%d corrupted replies, %d failures counted (correct=%v): %v", corrupted, r.Failed, r.correct(), r.Problems)
	}
}

func TestCheckReply(t *testing.T) {
	want := []byte(`{"count":1}` + "\n")
	for _, c := range []struct {
		name string
		r    reply
		ok   bool
	}{
		{"identical", reply{status: 200, body: want}, true},
		{"one byte off", reply{status: 200, body: []byte(`{"count":2}` + "\n")}, false},
		{"missing newline", reply{status: 200, body: want[:len(want)-1]}, false},
		{"error status", reply{status: 504, body: want}, false},
	} {
		if ok, why := checkReply(c.r, want, bytes.Equal); ok != c.ok {
			t.Errorf("%s: ok=%v (%s), want %v", c.name, ok, why, c.ok)
		}
	}
}

// TestExplanationOrderTolerance checks that an explanation printing the
// same derivation in another order passes and any other change fails.
func TestExplanationOrderTolerance(t *testing.T) {
	render := func(text string) []byte {
		raw, err := jsonLine(serve.ExplainResponse{Pair: serve.MergePair{A: "p1", B: "p1_d"}, Status: "certain", Text: text})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	head := "(p1,p1_d) is certain: it holds in every maximal solution; one derivation:\n"
	a := head + " 1. (a1,a1_d) by rule sigma2 using X\n 2. (c0,c0_d) by rule sigma1 using Y\n 3. (p1,p1_d) by rule sigma3 using Z joining via (a1,a1_d) (c0,c0_d)\n"
	b := head + " 1. (c0,c0_d) by rule sigma1 using Y\n 2. (a1,a1_d) by rule sigma2 using X\n 3. (p1,p1_d) by rule sigma3 using Z joining via (c0,c0_d) (a1,a1_d)\n"
	changed := strings.Replace(a, "sigma1", "sigma2", 1)
	if !sameExplanation(render(b), render(a)) {
		t.Error("reordered derivation rejected")
	}
	if sameExplanation(render(changed), render(a)) {
		t.Error("changed derivation accepted")
	}
	other := bytes.Replace(render(a), []byte(`"certain"`), []byte(`"possible"`), 1)
	if sameExplanation(other, render(a)) {
		t.Error("changed status accepted")
	}
}

// TestBatchRepetitionsMustAgree checks that a resolution whose merge
// sets differ from an earlier one of the same instance is a failure.
func TestBatchRepetitionsMustAgree(t *testing.T) {
	r := newResult("resolve-batch", 1, false)
	checkBatch(r, []batchOp{{Seed: 1, Digest: "x"}, {Seed: 2, Digest: "y"}, {Seed: 1, Digest: "x", Repeat: true}, {Seed: 1, Digest: "z", Repeat: true}})
	if r.Attempted != 4 || r.Failed != 1 {
		t.Fatalf("attempted %d failed %d, want 4 and 1", r.Attempted, r.Failed)
	}
}
