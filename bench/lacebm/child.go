package main

// child.go runs the system under test in its own process: the bench
// binary re-executes itself with LACEBM_CHILD set to a JSON childSpec.
// A serve child wires serve.New + net.Listen + http.Server exactly as
// cmd/laced run() does, prints its address, and drains when its stdin
// closes. A batch child runs the offline resolution loop and prints its
// summary. Keeping the target in a child gives it its own CPUs' worth
// of GOMAXPROCS and lets the parent read its peak RSS alone.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/audit"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
)

const childEnv = "LACEBM_CHILD"

type childSpec struct {
	// Role is "serve" or "batch".
	Role     string `json:"role"`
	Workload string `json:"workload"`
	// GenSeed is the generator seed of a serve child's instance, and the
	// seed of a batch child's stream of instances.
	GenSeed int64 `json:"gen_seed"`
	// WAL is the write-ahead log path of a write-mixed serve child.
	WAL string `json:"wal,omitempty"`
	// Seconds is how long a batch child measures.
	Seconds float64 `json:"seconds,omitempty"`
}

// child is a running target process.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	done  chan error
}

func startChild(spec childSpec) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	// A child outliving a killed bench would hold its port and CPU.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &child{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout), done: make(chan error, 1)}, nil
}

// readJSON decodes the child's next line of standard output.
func (c *child) readJSON(v any) error {
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("child output: %w", err)
	}
	return json.Unmarshal(line, v)
}

// stop closes the child's stdin — its signal to drain and exit — and
// waits for it, killing it if it has not exited within the grace
// period.
func (c *child) stop() error {
	c.stdin.Close()
	go func() {
		_, _ = io.Copy(io.Discard, c.out) // Wait must not race unread output
		c.done <- c.cmd.Wait()
	}()
	select {
	case err := <-c.done:
		return err
	case <-time.After(20 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
		return errors.New("child did not exit within 20s of stop; killed")
	}
}

// peakRSSMB reads the child's peak resident set size (VmHWM).
func (c *child) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
}

// vmHWM parses the VmHWM line of a /proc status file, in MiB.
func vmHWM(path string) (float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// childMain is the entry point of a child process.
func childMain(rawSpec string) int {
	var spec childSpec
	err := json.Unmarshal([]byte(rawSpec), &spec)
	if err == nil {
		switch spec.Role {
		case "serve":
			err = serveChild(spec)
		case "batch":
			err = batchChild(spec)
		default:
			err = fmt.Errorf("unknown child role %q", spec.Role)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lacebm child:", err)
		return 1
	}
	return 0
}

type readyLine struct {
	Addr string `json:"addr"`
}

// target is a served instance: the dataset and the live server.
type target struct {
	ds   *workload.Dataset
	srv  *serve.Server
	rec  *obs.Registry
	alog *audit.Log
}

// newTarget builds the server a workload runs against with cmd/laced's
// defaults — Workers 0, Parallelism 0, a 30s request timeout, a 1min
// cap, a 1024-entry response cache — plus each workload's flags:
// read-cold is `-cache -1`, write-mixed is `-shards -mutable -wal
// -audit <wal>`.
func newTarget(w string, genSeed int64, walPath string) (*target, error) {
	t := &target{rec: obs.NewRegistry()}
	var err error
	if w == "write-mixed" {
		t.ds, err = scaleDataset(genSeed, writeEntities)
	} else {
		t.ds, err = readDataset(genSeed)
	}
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{
		DB:             t.ds.DB,
		Spec:           t.ds.Spec,
		Sims:           t.ds.Sims,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     time.Minute,
		CacheSize:      serve.DefaultCacheSize,
		Recorder:       t.rec,
	}
	switch w {
	case "read-cold":
		cfg.CacheSize = -1
	case "write-mixed":
		t.alog, _, err = audit.Open(walPath, audit.Options{Durable: true})
		if err != nil {
			return nil, err
		}
		cfg.Sharded = true
		cfg.Mutable = true
		cfg.Audit = t.alog
		cfg.WAL = true
	}
	t.srv, err = serve.New(cfg)
	if err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *target) close() error {
	if t.alog == nil {
		return nil
	}
	return t.alog.Close()
}

// listen serves h on a loopback port until the returned stop runs;
// stop drains the server the way laced does on SIGTERM.
func (t *target) listen(h http.Handler) (addr string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := t.srv.Shutdown(ctx); err != nil {
			return err
		}
		hctx, hcancel := context.WithTimeout(context.Background(), time.Second)
		defer hcancel()
		_ = httpSrv.Shutdown(hctx)
		if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return t.close()
	}
	return ln.Addr().String(), stop, nil
}

func serveChild(spec childSpec) error {
	t, err := newTarget(spec.Workload, spec.GenSeed, spec.WAL)
	if err != nil {
		return err
	}
	addr, stop, err := t.listen(t.srv.Handler())
	if err != nil {
		t.close()
		return err
	}
	if err := json.NewEncoder(os.Stdout).Encode(readyLine{Addr: addr}); err != nil {
		stop()
		return err
	}
	_, _ = io.Copy(io.Discard, os.Stdin) // serve until the parent closes stdin
	return stop()
}
