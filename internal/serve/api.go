package serve

import (
	"fmt"
	"strings"
)

// api.go defines the request and response JSON of the resolution
// server's /v1 endpoints. The types are shared by the server, the e2e
// test oracle and the laceload generator, so "byte-identical to the
// oracle" is checked against one encoding.
//
// Every response carries the common result envelope: on success the
// endpoint's payload, on interruption (budget or deadline) the
// Interrupted marker plus whatever partial payload the task produced,
// and on failure an Error string.

// Request is the common request body accepted by every /v1 endpoint.
// Endpoints that take no task parameters (the merge and solution sets)
// use it directly; the others embed it. All fields are optional: the
// zero request runs with the server's defaults.
type Request struct {
	// TimeoutMS bounds this request's wall-clock time in milliseconds.
	// It is capped by the server's configured maximum; 0 means the
	// server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// AnswersRequest asks for certain or possible answers to a conjunctive
// query, posed in the textual query language ("(x) : R(x,y), p(y,z)").
type AnswersRequest struct {
	Request
	Query string `json:"query"`
	// Semantics is "certain" (default) or "possible".
	Semantics string `json:"semantics,omitempty"`
}

// ExplainRequest asks for the merge status of the pair (A, B) with
// supporting evidence.
type ExplainRequest struct {
	Request
	A string `json:"a"`
	B string `json:"b"`
}

// FactJSON is one fact in wire form: a relation name and its argument
// constants, by name.
type FactJSON struct {
	Rel  string   `json:"rel"`
	Args []string `json:"args"`
}

// FactsRequest asks a mutable server to apply one atomic mutation
// batch: retractions first, then insertions. Either list may be empty;
// an empty batch still advances the epoch.
type FactsRequest struct {
	Request
	Insert  []FactJSON `json:"insert,omitempty"`
	Retract []FactJSON `json:"retract,omitempty"`
}

// Envelope is the part every response shares.
type Envelope struct {
	// Interrupted marks a partial result: the task was cut short by a
	// resource budget (HTTP 413) or a deadline (HTTP 504) and the
	// payload covers only the work completed before the stop.
	Interrupted bool `json:"interrupted,omitempty"`
	// Error describes why the request failed or was interrupted.
	Error string `json:"error,omitempty"`
}

// MergePair is one unordered merge, named by its constants.
type MergePair struct {
	A string `json:"a"`
	B string `json:"b"`
}

// MergesResponse answers /v1/merges/certain and /v1/merges/possible.
type MergesResponse struct {
	Envelope
	Semantics string      `json:"semantics"`
	Merges    []MergePair `json:"merges"`
	Count     int         `json:"count"`
}

// AnswersResponse answers /v1/answers. For a Boolean query (no head
// variables) Answers is empty and Boolean holds the verdict; otherwise
// Answers lists the answer tuples of original constants, sorted.
type AnswersResponse struct {
	Envelope
	Semantics string     `json:"semantics"`
	Query     string     `json:"query"`
	Boolean   *bool      `json:"boolean,omitempty"`
	Answers   [][]string `json:"answers,omitempty"`
	Count     int        `json:"count"`
}

// SolutionJSON is one solution: its nontrivial equivalence classes,
// members in interning order, classes ordered by first member.
type SolutionJSON struct {
	Classes [][]string `json:"classes"`
}

// SolutionsResponse answers /v1/solutions/maximal. Solutions are
// ordered by canonical partition key — the deterministic order shared
// by the sequential and parallel searches.
type SolutionsResponse struct {
	Envelope
	Solutions []SolutionJSON `json:"solutions"`
	Count     int            `json:"count"`
}

// ExplainResponse answers /v1/explain.
type ExplainResponse struct {
	Envelope
	Pair MergePair `json:"pair"`
	// Status is "certain", "possible" or "impossible".
	Status string `json:"status"`
	// Text is the human-readable explanation (a Definition-4 derivation
	// for certain merges, witness/counterexample solutions for possible
	// ones, the obstruction for impossible ones).
	Text string `json:"text"`
}

// FactsResponse answers POST /v1/facts.
type FactsResponse struct {
	Envelope
	// Epoch is the new epoch the batch produced.
	Epoch uint64 `json:"epoch"`
	// Inserted / Retracted count the facts actually added and removed.
	Inserted  int `json:"inserted"`
	Retracted int `json:"retracted"`
	// Fingerprint is the new database's content fingerprint; cached
	// responses from earlier epochs are keyed under the old one and can
	// no longer be served.
	Fingerprint string `json:"db_fingerprint"`
	// DirtyShards counts the previous epoch's shard components the batch
	// touched; after an epoch answered by the top, the lattice-top
	// classes it names, a lower bound on what it changed (-1 when
	// unavailable: the previous epoch was never resolved, or fell back
	// to a monolithic solve).
	DirtyShards int `json:"dirty_shards"`
}

// HealthResponse answers /healthz.
type HealthResponse struct {
	Status      string `json:"status"`
	Fingerprint string `json:"db_fingerprint"`
	Facts       int    `json:"facts"`
	Workers     int    `json:"workers"`
	Epoch       uint64 `json:"epoch"`
	Mutable     bool   `json:"mutable,omitempty"`
	Draining    bool   `json:"draining,omitempty"`
}

// canonicalAnswers normalizes an answers request into its cache key
// form. The timeout is deliberately excluded: it cannot change a
// successful response, only whether one is produced.
func (r AnswersRequest) canonical() (string, error) {
	sem := r.Semantics
	if sem == "" {
		sem = "certain"
	}
	if sem != "certain" && sem != "possible" {
		return "", fmt.Errorf("unknown semantics %q (want certain or possible)", r.Semantics)
	}
	return sem + "\x00" + strings.TrimSpace(r.Query), nil
}

// canonical normalizes an explain request into its cache key form
// (unordered pair).
func (r ExplainRequest) canonical() (string, error) {
	a, b := strings.TrimSpace(r.A), strings.TrimSpace(r.B)
	if a == "" || b == "" {
		return "", fmt.Errorf("both constants of the pair are required")
	}
	if a > b {
		a, b = b, a
	}
	return a + "\x00" + b, nil
}
