package main

// write.go: the write-mixed workload. One laced -shards -mutable -wal
// serves a GenerateScale instance; every operation is a round of one
// durable one-fact write (retract or re-insert one of the client's own
// Author tuples) followed by a /v1/solutions/maximal read, which lands
// on the epoch the write produced or a later one and so always pays
// that epoch's resolve. /v1/merges/* stays out of the mix: with an
// audit log (which -wal requires) the merge endpoints run a monolithic
// whole-instance search for their justifications, which does not
// return at this size.
//
// The instance uses GenerateScale's defaults except MaxDup 1. With the
// default of 3, a rare entity with four references forms a shard whose
// candidate lattice is thousands of states, and one such shard decides
// the resolve time: at 2 000 entities it ranges from 0.3 s to 13 s
// between seeds, which no regression bound could hold.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/serve"
	"repro/internal/workload"
)

const (
	scaleMaxDup   = 1
	writeEntities = 2000
	// writePanel is the number of instances one untraced run serves:
	// resolve cost varies by about 20% between 2 000-entity instances
	// (two or three stitch rounds), and a run's pool must average that
	// out.
	writePanel = 12
	// writeTuples is the number of Author tuples each client toggles.
	writeTuples = 12
)

func scaleDataset(seed int64, entities int) (*workload.Dataset, error) {
	cfg := workload.DefaultScaleConfig(seed, entities)
	cfg.MaxDup = scaleMaxDup
	return workload.GenerateScale(cfg)
}

// writeTupleSets picks each client's disjoint set of Author tuples,
// seeded by the workload seed.
func writeTupleSets(ds *workload.Dataset, seed int64) [][]serve.FactJSON {
	in := ds.DB.Interner()
	tuples := ds.DB.Tuples("Author")
	perm := rand.New(rand.NewSource(seed)).Perm(len(tuples))
	sets := make([][]serve.FactJSON, clients)
	for c := range sets {
		for _, i := range perm[c*writeTuples : (c+1)*writeTuples] {
			args := make([]string, len(tuples[i]))
			for j, k := range tuples[i] {
				args[j] = in.Name(k)
			}
			sets[c] = append(sets[c], serve.FactJSON{Rel: "Author", Args: args})
		}
	}
	return sets
}

// writeBatch is client c's i-th write: it flips one tuple of the
// client's set, retracting it if present and re-inserting it if not,
// choosing the tuple by the binary-reflected Gray code of i. The
// client's retracted subset therefore never repeats within its first
// 2^writeTuples-1 writes, so the database never returns to an earlier
// state and every read after a write misses the fingerprint-keyed
// response cache and pays its epoch's resolve.
//
// Writes only ever re-insert generated tuples. A write that brings a
// constant name the instance has never held crashes the server when
// another epoch is still resolving: every epoch's coupling analysis
// evaluates similarity through the one base registry, whose memo tier
// is unsynchronized (see bench/README.md).
func writeBatch(sets [][]serve.FactJSON, c, i int) serve.FactsRequest {
	k := bits.TrailingZeros(uint(i+1)) % writeTuples
	f := []serve.FactJSON{sets[c][k]}
	if gray := i ^ (i >> 1); gray>>k&1 == 0 {
		return serve.FactsRequest{Retract: f}
	}
	return serve.FactsRequest{Insert: f}
}

// ack is an acknowledged write.
type ack struct {
	serve.FactsResponse
	batch serve.FactsRequest
}

// round is one write-then-read operation; it reports the write's
// acknowledgement and the read's reply.
func round(cl *http.Client, base string, batch serve.FactsRequest, ids [2]string) (*ack, reply, string) {
	body, err := json.Marshal(batch)
	if err != nil {
		return nil, reply{}, err.Error()
	}
	w := post(cl, base+"/v1/facts", string(body), ids[0])
	if w.err != nil || w.status != 200 {
		return nil, w, fmt.Sprintf("write: %v: %.200s", w, w.body)
	}
	a := &ack{batch: batch}
	if err := json.Unmarshal(w.body, &a.FactsResponse); err != nil {
		return nil, w, fmt.Sprintf("write ack: %v", err)
	}
	rd := post(cl, base+"/v1/solutions/maximal", "", ids[1])
	if rd.err != nil || rd.status != 200 {
		return a, rd, fmt.Sprintf("read: %v: %.200s", rd, rd.body)
	}
	var sol serve.SolutionsResponse
	if err := json.Unmarshal(rd.body, &sol); err != nil || sol.Count != len(sol.Solutions) {
		return a, rd, fmt.Sprintf("read: malformed body %.200q", rd.body)
	}
	return a, rd, ""
}

func writeOp(base string, sets [][]serve.FactJSON, ids func(c, i int) [2]string) func(c, i int) opResult {
	cls := make([]*http.Client, clients)
	for c := range cls {
		cls[c] = newClient()
	}
	return func(c, i int) opResult {
		var id [2]string
		if ids != nil {
			id = ids(c, i)
		}
		start := time.Now()
		a, rd, why := round(cls[c], base, writeBatch(sets, c, i), id)
		return opResult{client: c, seq: i, start: start, end: time.Now(), ok: why == "", why: why, ack: a, cache: rd.cache}
	}
}

// verifyWrites checks the durable write path end to end: acks sorted
// by epoch must number 1..N and replay through db.Apply to the same
// fingerprints, the WAL must verify with exactly one mutation record
// per ack, and the final read must equal a fresh sharded resolution of
// the replayed database.
func verifyWrites(r *runResult, ds *workload.Dataset, acks []*ack, walPath string, final []byte) {
	sort.Slice(acks, func(i, j int) bool { return acks[i].Epoch < acks[j].Epoch })
	d := ds.DB
	for i, a := range acks {
		if a.Epoch != uint64(i+1) {
			r.fail("ack %d has epoch %d, want %d", i, a.Epoch, i+1)
			return
		}
		nd, _, _, err := db.Apply(d, factSpecs(a.batch.Insert), factSpecs(a.batch.Retract))
		if err != nil {
			r.fail("replay epoch %d: %v", a.Epoch, err)
			return
		}
		d = nd
		if fp := d.Fingerprint(); fp != a.Fingerprint {
			r.fail("replay epoch %d: fingerprint %s, ack says %s", a.Epoch, fp, a.Fingerprint)
		}
	}

	f, err := os.Open(walPath)
	if err != nil {
		r.fail("open WAL: %v", err)
		return
	}
	recs, err := audit.VerifyRecords(f)
	f.Close()
	if err != nil {
		r.fail("WAL chain: %v", err)
		return
	}
	var muts []audit.Record
	for _, rec := range recs {
		if rec.Op == audit.OpMutate {
			muts = append(muts, rec)
		}
	}
	if len(muts) != len(acks) {
		r.fail("WAL holds %d mutation records for %d acks", len(muts), len(acks))
	} else {
		for i, rec := range muts {
			if rec.Epoch != acks[i].Epoch || rec.DBFingerprint != acks[i].Fingerprint {
				r.fail("WAL record %d: epoch %d fingerprint %s, ack epoch %d fingerprint %s",
					i, rec.Epoch, rec.DBFingerprint, acks[i].Epoch, acks[i].Fingerprint)
			}
		}
	}

	r.Attempted++
	se, err := core.NewSharded(d, ds.Spec, ds.Sims, core.Options{}, core.ShardOptions{})
	if err != nil {
		r.fail("fresh resolve: %v", err)
		return
	}
	ms, err := se.MaximalSolutionsCtx(context.Background())
	if err != nil {
		r.fail("fresh resolve: %v", err)
		return
	}
	want, err := jsonLine(solutionsResponse(ms, d.Interner()))
	if err != nil {
		r.fail("render: %v", err)
		return
	}
	if ok, why := checkReply(reply{status: 200, body: final}, want, bytes.Equal); !ok {
		r.fail("final maximal read vs fresh resolve of the replayed database: %s", why)
	}
}

func factSpecs(fs []serve.FactJSON) []db.FactSpec {
	out := make([]db.FactSpec, len(fs))
	for i, f := range fs {
		out[i] = db.FactSpec{Rel: f.Rel, Args: f.Args}
	}
	return out
}

// writeServer starts a write-mixed child over a fresh WAL in dir and
// waits until it is healthy and its epoch-0 resolve is done.
func writeServer(r *runResult, seed int64, dir string) (*child, string, string, error) {
	wal := filepath.Join(dir, "wal.jsonl")
	ch, err := startChild(childSpec{Role: "serve", Workload: "write-mixed", GenSeed: seed, WAL: wal})
	if err != nil {
		return nil, "", "", err
	}
	var ready readyLine
	if err := ch.readJSON(&ready); err != nil {
		ch.stop()
		return nil, "", "", err
	}
	base := "http://" + ready.Addr
	if err := waitHealthy(newClient(), base); err != nil {
		ch.stop()
		return nil, "", "", err
	}
	maximalRead(r, base, "epoch-0 read")
	return ch, base, wal, nil
}

// maximalRead reads the served maximal solutions once, counting the
// read as an operation, and returns the body.
func maximalRead(r *runResult, base, what string) []byte {
	r.Attempted++
	rd := post(newClient(), base+"/v1/solutions/maximal", "", "")
	if rd.err != nil || rd.status != 200 {
		r.fail("%s: %v", what, rd)
	}
	return rd.body
}

// driveWrites runs the write-mixed rounds against base for d, then
// reads the final state. It counts every operation and returns the
// rounds, their wall time, the acknowledged writes and the final body.
func driveWrites(r *runResult, base string, sets [][]serve.FactJSON, d time.Duration,
	ids func(c, i int) [2]string) ([]opResult, time.Duration, []*ack, []byte) {

	res, elapsed := closedLoop(d, writeOp(base, sets, ids))
	final := maximalRead(r, base, "final read")
	var acks []*ack
	for _, o := range res {
		r.Attempted += 2 // the write and the read
		if !o.ok {
			r.fail("round: %s", o.why)
		}
		if o.ack != nil {
			acks = append(acks, o.ack)
		}
	}
	return res, elapsed, acks, final
}

// runWrite is the untraced write-mixed run over a panel of writePanel
// instances, each served by its own child for an equal share of the
// run.
func runWrite(seed int64, seconds float64, tmpDir string) (*runResult, error) {
	r := newResult("write-mixed", seed, false)
	next := seedStream(seed)
	per := fromSeconds(seconds / float64(writePanel))
	var ps panelStats
	slow := slowdowns()
	for i := 0; i < writePanel; i++ {
		if err := writeInstance(r, &ps, slow, seed, next(), per, tmpDir); err != nil {
			return nil, err
		}
	}
	ps.report(r)
	return r, nil
}

// writeInstance serves one write-mixed instance for d and verifies
// every write it acknowledged.
func writeInstance(r *runResult, ps *panelStats, slow func() float64, seed, genSeed int64, d time.Duration, tmpDir string) error {
	ds, err := scaleDataset(genSeed, writeEntities)
	if err != nil {
		return err
	}
	sets := writeTupleSets(ds, seed^genSeed)
	dir, err := os.MkdirTemp(tmpDir, "write-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	ch, base, wal, err := writeServer(r, genSeed, dir)
	if err != nil {
		return err
	}
	setup := time.Since(start)
	res, elapsed, acks, final := driveWrites(r, base, sets, d, nil)
	mb, rssErr := ch.peakRSSMB()
	if err := ch.stop(); err != nil {
		return fmt.Errorf("write child: %w", err)
	}
	if rssErr != nil {
		return rssErr
	}
	ps.addLoop(slow(), res, elapsed, setup, mb)
	verifyWrites(r, ds, acks, wal, final)
	return nil
}

// seedStream returns successive generator seeds drawn from the workload
// seed.
func seedStream(seed int64) func() int64 {
	rng := rand.New(rand.NewSource(seed))
	return func() int64 { return rng.Int63n(1 << 31) }
}
