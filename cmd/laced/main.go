// Command laced is the LACE resolution server: it loads a database and
// an ER specification once, pre-builds the shared reasoning session,
// and serves the paper's decision problems as HTTP JSON endpoints:
//
//	POST /v1/merges/certain     certain merges of the instance
//	POST /v1/merges/possible    possible merges
//	POST /v1/answers            certain/possible answers to a CQ
//	POST /v1/solutions/maximal  the maximal solutions
//	POST /v1/explain            merge status of a pair, with evidence
//	POST /v1/facts              apply a fact batch (-mutable only)
//	GET  /metrics               Prometheus text exposition
//	GET  /metrics.json          instrumentation snapshot (JSON)
//	GET  /healthz               liveness, dataset fingerprint, epoch
//
// Requests carry an optional {"timeout_ms": N} deadline; a request cut
// short by the deadline or the search-state budget returns a partial
// result marked {"interrupted": true} with status 504 or 413. On
// SIGINT/SIGTERM the server drains: in-flight requests get -drain to
// finish, then their searches are cancelled.
//
// Each epoch is resolved once, in the background, from the top of its
// candidate lattice: a top that satisfies the denials is the answer;
// otherwise the coupled components it leaves in conflict are solved
// independently and stitched. Every reasoning endpoint reads that one
// resolution. -budget bounds each shard search of it (a resolution
// that exhausts the budget answers every request on its epoch with
// 413) and the maximal-solution product a request composes.
//
// -mutable turns the instance into a streaming one: POST /v1/facts
// applies an atomic batch of retractions and insertions, advancing the
// served epoch; in-flight readers keep answering against the epoch they
// started on, and the response cache invalidates by fingerprint.
//
// -wal makes mutations durable: the audit record of a batch is appended
// and fsynced strictly before the new epoch is published or the 200
// returned, so an acknowledged write survives kill -9. After a crash,
// -recover verifies the log's hash chain (truncating a torn final
// record if the crash interrupted a write), replays the logged batches
// over -data requiring every recorded fingerprint to reproduce, and
// resumes serving at the recovered epoch.
//
// Production telemetry rides on flags: -access-log writes one JSON line
// per request (request ID, status, latency, cache disposition, budget
// outcome), -trace streams span trees correlated by request ID, and
// -audit appends every certain/possible merge decision — with its
// Definition-4 justification — and every applied mutation batch to a
// hash-chained log. `laced -verify-audit <file>` checks the chain for
// tampering; adding -data additionally replays the logged batches
// against the fact file and requires every recorded post-batch database
// fingerprint to reproduce.
//
// Example:
//
//	laced -data bib.facts -spec bib.spec -simtable approx.tsv -addr :8080 \
//	      -access-log access.jsonl -audit audit.jsonl
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	lace "repro"
	"repro/internal/audit"
	"repro/internal/serve"
)

// Connection limits: a client must finish sending a request's headers
// within readHeaderTimeout, and a keep-alive connection idle for
// idleTimeout is closed, so stalled or abandoned connections cannot pin
// the server's file descriptors and goroutines.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		close(stop)
	}()
	if err := run(os.Args[1:], stop, nil, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "laced:", err)
		os.Exit(1)
	}
}

// run parses flags, serves until stop closes, then drains. ready, when
// non-nil, receives the bound address once the listener is up (tests
// pass -addr 127.0.0.1:0 and read the port from here).
func run(args []string, stop <-chan struct{}, ready func(addr string), out io.Writer) error {
	fs := flag.NewFlagSet("laced", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		dataPath   = fs.String("data", "", "fact file (required)")
		specPath   = fs.String("spec", "", "specification file (required)")
		simTable   = fs.String("simtable", "", "TSV file of similar value pairs for approx()")
		addr       = fs.String("addr", ":8080", "listen address")
		workers    = fs.Int("workers", 0, "concurrent request limit (0 = GOMAXPROCS)")
		parallel   = fs.Int("parallel", 0, "workers of each epoch's background resolution: concurrent shard solves, a lone shard's walk (0 = GOMAXPROCS, 1 = sequential)")
		budget     = fs.Int("budget", 0, "search-state budget of each shard search and of a request's maximal-solution product (0 = default)")
		reqTimeout = fs.Duration("req-timeout", 30*time.Second, "default per-request deadline (0 = none)")
		maxTimeout = fs.Duration("max-timeout", time.Minute, "cap on client-requested deadlines")
		cacheSize  = fs.Int("cache", serve.DefaultCacheSize, "response cache entries (negative disables)")
		drain      = fs.Duration("drain", 10*time.Second, "grace period for in-flight requests on shutdown")
		stats      = fs.Bool("stats", false, "print the metrics snapshot after shutdown")
		accessLog  = fs.String("access-log", "", "append a JSON line per request to this file (- for stdout)")
		tracePath  = fs.String("trace", "", "stream span trace JSONL to this file (- for stdout)")
		auditPath  = fs.String("audit", "", "append hash-chained merge-decision records to this file")
		verifyPath = fs.String("verify-audit", "", "verify an audit log's hash chain and exit")
		mutable    = fs.Bool("mutable", false, "accept POST /v1/facts mutation batches (each advances the served epoch)")
		wal        = fs.Bool("wal", false, "write-ahead durable mutations: fsync the audit record before a batch is published or acknowledged (requires -mutable and -audit)")
		recovr     = fs.Bool("recover", false, "verify the -audit chain at startup, replay its mutation batches over -data, and resume serving at the recovered epoch")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *verifyPath != "" {
		f, err := os.Open(*verifyPath)
		if err != nil {
			return err
		}
		defer f.Close()
		recs, err := audit.VerifyRecords(f)
		if err != nil {
			return fmt.Errorf("%s: %d record(s) verified, then: %w", *verifyPath, len(recs), err)
		}
		fmt.Fprintf(out, "laced: %s: %d record(s), chain intact\n", *verifyPath, len(recs))
		if *dataPath != "" {
			return replayMutations(recs, *dataPath, out)
		}
		return nil
	}
	if *dataPath == "" || *specPath == "" {
		return errors.New("-data and -spec are required")
	}
	if *wal && (!*mutable || *auditPath == "") {
		return errors.New("-wal requires -mutable and -audit (the audit log is the write-ahead log)")
	}
	if *recovr && *auditPath == "" {
		return errors.New("-recover requires -audit (the log to recover from)")
	}

	d, spec, sims, err := lace.LoadFiles(*dataPath, *specPath, *simTable)
	if err != nil {
		return err
	}
	rec := lace.NewRecorder()
	cfg := serve.Config{
		DB:             d,
		Spec:           spec,
		Sims:           sims,
		Workers:        *workers,
		Parallelism:    *parallel,
		MaxStates:      *budget,
		DefaultTimeout: *reqTimeout,
		MaxTimeout:     *maxTimeout,
		CacheSize:      *cacheSize,
		Recorder:       rec,
		Mutable:        *mutable,
	}
	if *accessLog != "" {
		w, closeFn, err := openSink(*accessLog, out)
		if err != nil {
			return err
		}
		defer closeFn()
		cfg.AccessLog = w
	}
	if *tracePath != "" {
		w, closeFn, err := openSink(*tracePath, out)
		if err != nil {
			return err
		}
		defer closeFn()
		rec.TraceTo(w)
	}
	if *auditPath != "" {
		// audit.Open scans the existing file, truncates a torn tail left
		// by a crash, and resumes the hash chain where it ended, so a
		// restarted server appends records any verifier accepts. Durable
		// mode (-wal) additionally fsyncs each mutation record before
		// Append returns.
		alog, info, err := audit.Open(*auditPath, audit.Options{Durable: *wal})
		if err != nil {
			return err
		}
		defer alog.Close()
		if info.TruncatedBytes > 0 {
			fmt.Fprintf(out, "laced: %s: dropped torn tail (%d bytes; %s)\n",
				*auditPath, info.TruncatedBytes, info.TornReason)
		}
		if len(info.Records) > 0 {
			fmt.Fprintf(out, "laced: %s: %d record(s), resuming chain\n", *auditPath, len(info.Records))
		}
		cfg.Audit = alog
		cfg.WAL = *wal
		if *recovr {
			rd, epoch, replayed, err := replayRecords(info.Records, d)
			if err != nil {
				return fmt.Errorf("recover: %w", err)
			}
			cfg.DB = rd
			cfg.InitialEpoch = epoch
			fmt.Fprintf(out, "laced: recovered %d mutation batch(es), resuming at epoch %d, fingerprint %s\n",
				replayed, epoch, rd.Fingerprint())
		} else if *mutable && hasMutations(info.Records) {
			fmt.Fprintf(out, "laced: warning: %s already holds mutation records; without -recover new epochs will renumber from 1 and replay will not reproduce (start with -recover to resume the lineage)\n", *auditPath)
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "laced: %d facts, fingerprint %s, listening on %s\n",
		d.NumFacts(), srv.DBFingerprint(), ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-stop:
	}

	fmt.Fprintf(out, "laced: draining (grace %v)\n", *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(out, "laced: drain cut short: %v\n", err)
	}
	httpCtx, httpCancel := context.WithTimeout(context.Background(), time.Second)
	defer httpCancel()
	httpSrv.Shutdown(httpCtx)
	if *stats {
		fmt.Fprint(out, srv.Stats().Format())
	}
	fmt.Fprintln(out, "laced: bye")
	return nil
}

// replayMutations is the audit log's integrity check against the data:
// starting from the fact file, re-apply every mutation record's batch
// and require each recorded post-batch fingerprint to reproduce. A
// mismatch means the log and the data disagree — the starting file is
// not the one the server loaded, or the log's batches were altered in a
// way that still passes the hash chain (it can't be, but the replay
// proves it independently).
func replayMutations(recs []audit.Record, dataPath string, out io.Writer) error {
	raw, err := os.ReadFile(dataPath)
	if err != nil {
		return err
	}
	d, err := lace.ParseDatabase(string(raw), nil, nil)
	if err != nil {
		return fmt.Errorf("%s: %w", dataPath, err)
	}
	d, _, replayed, err := replayRecords(recs, d)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "laced: replayed %d mutation record(s) against %s, every fingerprint reproduced (final %s)\n",
		replayed, dataPath, d.Fingerprint())
	return nil
}

// replayRecords applies every mutation record's batch over d in log
// order, requiring each recorded post-batch fingerprint to reproduce —
// the recovery core shared by -verify-audit -data and -recover. It
// returns the final database, the last replayed epoch (0 when the log
// holds no mutations) and the batch count.
func replayRecords(recs []audit.Record, d *lace.Database) (*lace.Database, uint64, int, error) {
	var epoch uint64
	replayed := 0
	for _, rec := range recs {
		if rec.Op != audit.OpMutate {
			continue
		}
		nd, _, _, err := lace.ApplyFacts(d, rowSpecs(rec.Insert), rowSpecs(rec.Retract))
		if err != nil {
			return nil, 0, 0, fmt.Errorf("replay: record %d (epoch %d): %w", rec.Seq, rec.Epoch, err)
		}
		d = nd
		if fp := d.Fingerprint(); fp != rec.DBFingerprint {
			return nil, 0, 0, fmt.Errorf("replay: record %d (epoch %d): fingerprint %s, log says %s",
				rec.Seq, rec.Epoch, fp, rec.DBFingerprint)
		}
		epoch = rec.Epoch
		replayed++
	}
	return d, epoch, replayed, nil
}

// hasMutations reports whether the log holds at least one mutation
// record.
func hasMutations(recs []audit.Record) bool {
	for _, r := range recs {
		if r.Op == audit.OpMutate {
			return true
		}
	}
	return false
}

// rowSpecs converts audit-log fact rows (relation name first) back to
// fact specs.
func rowSpecs(rows [][]string) []lace.FactSpec {
	if len(rows) == 0 {
		return nil
	}
	out := make([]lace.FactSpec, len(rows))
	for i, row := range rows {
		if len(row) == 0 {
			continue
		}
		out[i] = lace.FactSpec{Rel: row[0], Args: row[1:]}
	}
	return out
}

// openSink opens a telemetry output: "-" means the server's own output
// stream, anything else a file created (or truncated) for this run.
func openSink(path string, out io.Writer) (io.Writer, func(), error) {
	if path == "-" {
		return out, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}
