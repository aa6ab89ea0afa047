package main

// read.go: the read-hot and read-cold workloads. Both serve small
// bibliographic instances (workload.Generate with 6 authors, 9 papers,
// 3 conferences, default rates) from a monolithic laced; read-hot keeps
// the response cache on, read-cold turns it off.
//
// Cold request cost swings from 0.5 ms to 440 ms between generator
// seeds at this size. It follows the size of the candidate-solution
// lattice the search walks, so an instance qualifies only with exactly
// 8 duplicate references and a lattice of exactly 192 hard-closed
// candidates (the commonest size among 8-duplicate instances). The
// lattice size is a property of the instance and the specification,
// not of any search algorithm, so a faster search does not change which
// instances a seed selects. What varies between qualifying instances
// (join fan-out, fact count) still moves cold cost by about ±15%, so a
// run serves a panel of readPanel instances, one child server each, and
// pools their operations.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/rules"
	"repro/internal/serve"
	"repro/internal/workload"
)

const (
	readAuthors     = 6
	readPapers      = 9
	readConferences = 3
	readDuplicates  = 8
	readLattice     = 192
	// readPanel is the number of instances one untraced run serves.
	readPanel = 8
	// readQuery is the conjunctive query of the answers forms.
	readQuery = "(a) : CorrAuth(p,a), Wrote(p,a,z)"
)

func readDataset(genSeed int64) (*workload.Dataset, error) {
	cfg := workload.DefaultConfig(genSeed)
	cfg.Authors, cfg.Papers, cfg.Conferences = readAuthors, readPapers, readConferences
	return workload.Generate(cfg)
}

func duplicates(ds *workload.Dataset) int {
	return ds.AuthorRefs - readAuthors + ds.PaperRefs - readPapers + ds.ConfRefs - readConferences
}

// latticeSize counts the candidate solutions reachable from the hard
// closure of the identity by merging one soft-active pair and closing
// again — the states any exhaustive search must consider — stopping
// once the count passes limit.
func latticeSize(eng *core.Engine, limit int) (int, error) {
	root := eng.Identity()
	if err := eng.HardClose(root); err != nil {
		return 0, err
	}
	seen := map[string]bool{root.Key(): true}
	stack := []*eqrel.Partition{root}
	for len(stack) > 0 && len(seen) <= limit {
		E := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		act, err := eng.ActivePairs(E)
		if err != nil {
			return 0, err
		}
		for _, a := range act {
			child := E.Clone()
			child.Add(a.Pair)
			if err := eng.HardClose(child); err != nil {
				return 0, err
			}
			if k := child.Key(); !seen[k] {
				seen[k] = true
				stack = append(stack, child)
			}
		}
	}
	return len(seen), nil
}

// qualifies reports whether a generated read instance meets the
// selection rule.
func qualifies(ds *workload.Dataset) (bool, error) {
	if duplicates(ds) != readDuplicates {
		return false, nil
	}
	eng, err := core.New(ds.DB, ds.Spec, ds.Sims, core.Options{Parallelism: 1})
	if err != nil {
		return false, err
	}
	n, err := latticeSize(eng, readLattice)
	return n == readLattice, err
}

// readPanelSeeds draws generator seeds from a stream seeded by the
// workload seed and keeps the first k whose instances qualify.
func readPanelSeeds(seed int64, k int) ([]int64, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []int64
	for tries := 0; len(out) < k; tries++ {
		if tries > 100000 {
			return nil, fmt.Errorf("no qualifying read instance in %d generator seeds", tries)
		}
		s := rng.Int63n(1 << 31)
		ds, err := readDataset(s)
		if err != nil {
			return nil, err
		}
		ok, err := qualifies(ds)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, s)
		}
	}
	return out, nil
}

// request is one request form with its oracle response body.
type request struct {
	path string
	body string
	want []byte
	// form names the core call behind the request (trace rung 2).
	form string
	a, b string // explain pair
	// equal compares a reply body with want.
	equal func(got, want []byte) bool
}

var dupName = regexp.MustCompile(`^([acp][0-9]+)_d$`)

// readRequests builds the request forms of one instance — the six
// laced endpoint forms (both merge sets, maximal solutions, certain and
// possible answers, an explanation) with the explanation taken over
// every duplicate pair — and computes each oracle body from sequential
// core calls on an engine of the test's own, rendered through serve's
// response types exactly as the server renders them.
func readRequests(ds *workload.Dataset) ([]request, error) {
	ctx := context.Background()
	eng, err := core.New(ds.DB, ds.Spec, ds.Sims, core.Options{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	in := ds.DB.Interner()
	q, err := rules.ParseQuery(readQuery, ds.DB.Schema(), in.Clone(), ds.Sims)
	if err != nil {
		return nil, err
	}
	var reqs []request
	add := func(path, body, form string, v any) error {
		raw, err := jsonLine(v)
		reqs = append(reqs, request{path: path, body: body, want: raw, form: form, equal: bytes.Equal})
		return err
	}

	for _, sem := range []string{"certain", "possible"} {
		var pairs []eqrel.Pair
		if sem == "certain" {
			pairs, err = eng.Fork().CertainMergesCtx(ctx)
		} else {
			pairs, err = eng.Fork().PossibleMergesCtx(ctx)
		}
		if err != nil {
			return nil, err
		}
		resp := serve.MergesResponse{Semantics: sem, Merges: make([]serve.MergePair, len(pairs)), Count: len(pairs)}
		for i, p := range pairs {
			resp.Merges[i] = serve.MergePair{A: in.Name(p.A), B: in.Name(p.B)}
		}
		if err := add("/v1/merges/"+sem, "", "merges_"+sem, resp); err != nil {
			return nil, err
		}
	}

	maximal, err := eng.Fork().MaximalSolutionsCtx(ctx)
	if err != nil {
		return nil, err
	}
	if err := add("/v1/solutions/maximal", "", "maximal", solutionsResponse(maximal, in)); err != nil {
		return nil, err
	}

	for _, sem := range []string{"certain", "possible"} {
		resp, err := answersResponse(ctx, eng.Fork(), q, sem, ds)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(serve.AnswersRequest{Query: readQuery, Semantics: sem})
		if err != nil {
			return nil, err
		}
		if err := add("/v1/answers", string(body), "answers_"+sem, resp); err != nil {
			return nil, err
		}
	}

	for _, name := range in.Names() {
		m := dupName.FindStringSubmatch(name)
		if m == nil {
			continue
		}
		a, _ := in.Lookup(m[1])
		b, _ := in.Lookup(name)
		x, err := eng.Fork().ExplainMergeCtx(ctx, a, b)
		if err != nil {
			return nil, err
		}
		resp := serve.ExplainResponse{
			Pair:   serve.MergePair{A: m[1], B: name},
			Status: x.Status.String(),
			Text:   x.Format(in),
		}
		body, err := json.Marshal(serve.ExplainRequest{A: m[1], B: name})
		if err != nil {
			return nil, err
		}
		if err := add("/v1/explain", string(body), "explain", resp); err != nil {
			return nil, err
		}
		last := &reqs[len(reqs)-1]
		last.a, last.b, last.equal = m[1], name, sameExplanation
	}
	return reqs, nil
}

// jsonLine renders a response body as the server's writeJSON does.
func jsonLine(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	return append(raw, '\n'), err
}

// answersResponse renders a query's certain or possible answers as
// /v1/answers does.
func answersResponse(ctx context.Context, eng *core.Engine, q *cq.CQ, sem string, ds *workload.Dataset) (serve.AnswersResponse, error) {
	resp := serve.AnswersResponse{Semantics: sem, Query: readQuery}
	var tuples [][]db.Const
	var err error
	if sem == "certain" {
		tuples, err = eng.CertainAnswersCtx(ctx, q)
	} else {
		tuples, err = eng.PossibleAnswersCtx(ctx, q)
	}
	if err != nil {
		return resp, err
	}
	if len(q.Head) == 0 {
		yes := len(tuples) > 0
		resp.Boolean = &yes
		return resp, nil
	}
	in := ds.DB.Interner()
	resp.Answers = make([][]string, len(tuples))
	for i, t := range tuples {
		names := make([]string, len(t))
		for j, c := range t {
			names[j] = in.Name(c)
		}
		resp.Answers[i] = names
	}
	resp.Count = len(resp.Answers)
	return resp, nil
}

// solutionsResponse renders maximal solutions as /v1/solutions/maximal
// does.
func solutionsResponse(ms []*eqrel.Partition, in *db.Interner) serve.SolutionsResponse {
	resp := serve.SolutionsResponse{Solutions: []serve.SolutionJSON{}}
	for _, m := range ms {
		sol := serve.SolutionJSON{Classes: [][]string{}}
		for _, cls := range m.NontrivialClasses() {
			names := make([]string, len(cls))
			for i, c := range cls {
				names[i] = in.Name(c)
			}
			sol.Classes = append(sol.Classes, names)
		}
		resp.Solutions = append(resp.Solutions, sol)
	}
	resp.Count = len(resp.Solutions)
	return resp
}

// checkReply counts a reply against its oracle body: anything but a 200
// whose body equals the oracle's is a failure.
func checkReply(r reply, want []byte, equal func(got, want []byte) bool) (bool, string) {
	switch {
	case r.err != nil:
		return false, r.err.Error()
	case r.status != 200:
		return false, fmt.Sprintf("status %d: %.200s", r.status, r.body)
	case !equal(r.body, want):
		return false, fmt.Sprintf("body differs from the oracle: got %.300q want %.300q", r.body, want)
	}
	return true, ""
}

// sameExplanation compares /v1/explain bodies up to the order of the
// derivation's steps and of each step's join dependencies. That order
// is not deterministic — core's relaxedMatches collects
// a rule application's dependencies by ranging over a map — so two
// calls on one instance can print the same derivation in two orders.
// Everything else must match exactly: the pair, the status, the
// headline and the set of steps.
func sameExplanation(got, want []byte) bool {
	var g, w serve.ExplainResponse
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(want, &w) != nil {
		return false
	}
	gt, wt := g.Text, w.Text
	g.Text, w.Text = "", ""
	return g == w && canonicalDerivation(gt) == canonicalDerivation(wt) &&
		bytes.HasSuffix(got, []byte("}\n"))
}

var stepNumber = regexp.MustCompile(`^ *[0-9]+\. `)

// canonicalDerivation sorts an explanation's step lines (numbering
// dropped) and each line's "joining via" pairs.
func canonicalDerivation(text string) string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	steps := lines[1:]
	for i, l := range steps {
		l = stepNumber.ReplaceAllString(l, "")
		if k := strings.Index(l, " joining via "); k >= 0 {
			deps := strings.Fields(l[k+len(" joining via "):])
			sort.Strings(deps)
			l = l[:k] + " joining via " + strings.Join(deps, " ")
		}
		steps[i] = l
	}
	sort.Strings(steps)
	return lines[0] + "\n" + strings.Join(steps, "\n")
}

// readInstance is one served instance of a read run.
type readInstance struct {
	genSeed int64
	reqs    []request
}

func prepareRead(seed int64, k int) ([]readInstance, error) {
	seeds, err := readPanelSeeds(seed, k)
	if err != nil {
		return nil, err
	}
	out := make([]readInstance, len(seeds))
	for i, s := range seeds {
		ds, err := readDataset(s)
		if err != nil {
			return nil, err
		}
		reqs, err := readRequests(ds)
		if err != nil {
			return nil, err
		}
		out[i] = readInstance{genSeed: s, reqs: reqs}
	}
	return out, nil
}

// warm sends every request form once, checking each reply; on read-hot
// this fills the response cache.
func warm(r *runResult, cl *http.Client, base string, reqs []request) {
	for _, q := range reqs {
		r.Attempted++
		if ok, why := checkReply(post(cl, base+q.path, q.body, ""), q.want, q.equal); !ok {
			r.fail("warm-up %s %s: %s", q.path, q.body, why)
		}
	}
}

// readOp returns the closed-loop operation of a read run: each client
// walks its own seeded sequence over the request forms.
func readOp(base string, reqs []request, seed int64, ids func(c, i int) string) func(c, i int) opResult {
	cls := make([]*http.Client, clients)
	seqs := make([]*sequence, clients)
	for c := range cls {
		cls[c] = newClient()
		seqs[c] = newSequence(seed, c, len(reqs))
	}
	return func(c, i int) opResult {
		k := seqs[c].next()
		q := reqs[k]
		id := ""
		if ids != nil {
			id = ids(c, i)
		}
		start := time.Now()
		rep := post(cls[c], base+q.path, q.body, id)
		end := time.Now()
		ok, why := checkReply(rep, q.want, q.equal)
		return opResult{client: c, seq: i, start: start, end: end, ok: ok, why: why, key: k, cache: rep.cache}
	}
}

// runRead is the untraced read-hot / read-cold run over a panel of k
// instances, each served by its own child for an equal share of the
// run.
func runRead(w string, seed int64, seconds float64, k int) (*runResult, error) {
	r := newResult(w, seed, false)
	panel, err := prepareRead(seed, k)
	if err != nil {
		return nil, err
	}
	per := fromSeconds(seconds / float64(len(panel)))
	var ps panelStats
	slow := slowdowns()
	for _, inst := range panel {
		start := time.Now()
		ch, err := startChild(childSpec{Role: "serve", Workload: w, GenSeed: inst.genSeed})
		if err != nil {
			return nil, err
		}
		err = func() error {
			var ready readyLine
			if err := ch.readJSON(&ready); err != nil {
				return err
			}
			base := "http://" + ready.Addr
			cl := newClient()
			if err := waitHealthy(cl, base); err != nil {
				return err
			}
			warm(r, cl, base, inst.reqs)
			setup := time.Since(start)
			res, elapsed := closedLoop(per, readOp(base, inst.reqs, seed^inst.genSeed, nil))
			mb, err := ch.peakRSSMB()
			if err != nil {
				return err
			}
			for _, o := range res {
				r.Attempted++
				if !o.ok {
					r.fail("%s: %s", inst.reqs[o.key].path, o.why)
				}
			}
			if err := ch.stop(); err != nil {
				return fmt.Errorf("serve child: %w", err)
			}
			ps.addLoop(slow(), res, elapsed, setup, mb)
			return nil
		}()
		if err != nil {
			ch.stop()
			return nil, err
		}
	}
	ps.report(r)
	return r, nil
}
