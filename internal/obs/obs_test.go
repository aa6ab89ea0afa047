package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentRecording hammers one registry from several goroutines;
// run under -race this doubles as the data-race check.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Inc("c.total", 1)
				r.Inc("c.byworker", int64(w))
				r.Gauge("g.last", int64(i))
				r.Observe("d.step", int64(time.Duration(i)*time.Microsecond))
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.Counter("c.total"); got != workers*perWorker {
		t.Errorf("c.total = %d, want %d", got, workers*perWorker)
	}
	wantBW := int64(perWorker * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7))
	if got := snap.Counter("c.byworker"); got != wantBW {
		t.Errorf("c.byworker = %d, want %d", got, wantBW)
	}
	d := snap.Duration("d.step")
	if d.Count != workers*perWorker {
		t.Errorf("d.step count = %d, want %d", d.Count, workers*perWorker)
	}
	if d.Min != 0 || d.Max != time.Duration(perWorker-1)*time.Microsecond {
		t.Errorf("d.step min/max = %v/%v", d.Min, d.Max)
	}
	if g := snap.GaugeValue("g.last"); g != perWorker-1 {
		t.Errorf("g.last = %d, want %d", g, perWorker-1)
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	r := NewRegistry()
	r.Inc("c", 1)
	snap := r.Snapshot()
	r.Inc("c", 1)
	if snap.Counter("c") != 1 {
		t.Errorf("snapshot mutated after the fact: %d", snap.Counter("c"))
	}
	r.Reset()
	if got := r.Snapshot(); !got.Empty() {
		t.Errorf("Reset left state: %+v", got)
	}
}

// TestSpanNestingTrace checks parent attribution and JSONL ordering:
// spans are emitted in End order (children before parents), and each
// child's parent field names the enclosing open span.
func TestSpanNestingTrace(t *testing.T) {
	var buf bytes.Buffer
	r := NewRegistry()
	r.TraceTo(&buf)

	root := r.Start("root")
	child := r.Start("child").AttrInt("n", 3).AttrStr("kind", "inner")
	grand := r.Start("grand")
	grand.End()
	child.End()
	sibling := r.Start("sibling")
	sibling.End()
	root.End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("trace lines = %d, want 4:\n%s", len(lines), buf.String())
	}
	type ev struct {
		Span    string         `json:"span"`
		ID      int64          `json:"id"`
		Parent  int64          `json:"parent"`
		StartMS float64        `json:"start_ms"`
		DurMS   float64        `json:"dur_ms"`
		Attrs   map[string]any `json:"attrs"`
	}
	events := make(map[string]ev)
	var order []string
	for _, line := range lines {
		var e ev
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("malformed JSONL line %q: %v", line, err)
		}
		events[e.Span] = e
		order = append(order, e.Span)
	}
	want := []string{"grand", "child", "sibling", "root"}
	for i, name := range want {
		if order[i] != name {
			t.Fatalf("trace order = %v, want %v", order, want)
		}
	}
	if events["root"].Parent != 0 {
		t.Errorf("root parent = %d, want 0", events["root"].Parent)
	}
	if events["child"].Parent != events["root"].ID {
		t.Errorf("child parent = %d, want root id %d", events["child"].Parent, events["root"].ID)
	}
	if events["grand"].Parent != events["child"].ID {
		t.Errorf("grand parent = %d, want child id %d", events["grand"].Parent, events["child"].ID)
	}
	if events["sibling"].Parent != events["root"].ID {
		t.Errorf("sibling parent = %d, want root id %d", events["sibling"].Parent, events["root"].ID)
	}
	if got := events["child"].Attrs["n"]; got != float64(3) {
		t.Errorf("child attr n = %v, want 3", got)
	}
	if got := events["child"].Attrs["kind"]; got != "inner" {
		t.Errorf("child attr kind = %v, want inner", got)
	}
	// Span durations are observed under the span name.
	if r.Snapshot().Duration("root").Count != 1 {
		t.Error("root span duration not observed")
	}
}

// TestNopRecorderZeroAlloc pins the zero-cost claim: the no-op
// recorder performs no allocation on any code path.
func TestNopRecorderZeroAlloc(t *testing.T) {
	var r Recorder = Nop{}
	allocs := testing.AllocsPerRun(200, func() {
		r.Inc(CoreSearchStates, 1)
		r.Gauge(ASPGroundRules, 42)
		r.Observe(SpanCoreSearch, int64(time.Millisecond))
		sp := r.Start(SpanASPSolve)
		sp.AttrInt("models", 7)
		sp.AttrStr("mode", "enum")
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("no-op recorder allocates %.1f bytes-objects per run, want 0", allocs)
	}
}

func TestOrNop(t *testing.T) {
	if _, ok := OrNop(nil).(Nop); !ok {
		t.Error("OrNop(nil) should be Nop")
	}
}

func TestSnapshotFormat(t *testing.T) {
	r := NewRegistry()
	r.Inc(CoreSearchStates, 12)
	r.Gauge(ASPGroundRules, 5)
	sp := r.Start(SpanCoreSearch)
	sp.End()
	out := r.Snapshot().Format()
	for _, want := range []string{CoreSearchStates, ASPGroundRules, SpanCoreSearch, "phase", "counter"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}

// TestValueHistsAreNotDurations: every histogram is stored once, in
// Histograms. A value histogram (core.shard.size counts members) reads
// as zero DurationStats and gets no row in the phase table, while the
// distribution table keeps it; a duration histogram reads back as
// DurationStats with its count, sum and extrema. The JSON snapshot has
// no second, durations copy.
func TestValueHistsAreNotDurations(t *testing.T) {
	r := NewRegistry()
	r.Observe(HistShardSize, 3)
	r.Observe(HistShardSize, 5)
	r.Observe(SpanCoreSearch, int64(time.Millisecond))
	r.Observe(SpanCoreSearch, int64(3*time.Millisecond))
	snap := r.Snapshot()
	if d := snap.Duration(HistShardSize); d != (DurationStats{}) {
		t.Errorf("value histogram %s read as durations: %+v", HistShardSize, d)
	}
	h := snap.Histogram(SpanCoreSearch)
	want := DurationStats{Count: h.Count, Total: time.Duration(h.Sum),
		Min: time.Duration(h.Min), Max: time.Duration(h.Max)}
	if d := snap.Duration(SpanCoreSearch); d != want || d.Count != 2 ||
		d.Total != 4*time.Millisecond || d.Min != time.Millisecond || d.Max != 3*time.Millisecond {
		t.Errorf("duration histogram %s: %+v, histogram %+v", SpanCoreSearch, d, h)
	}
	if d := snap.Duration("never.observed"); d != (DurationStats{}) {
		t.Errorf("absent name read as %+v", d)
	}
	if h := snap.Histogram(HistShardSize); h.Count != 2 || h.Min != 3 || h.Max != 5 {
		t.Errorf("value histogram %s: %+v", HistShardSize, h)
	}
	out := snap.Format()
	if n := strings.Count(out, HistShardSize); n != 1 {
		t.Errorf("Format() lists %s %d times, want once (distribution table):\n%s", HistShardSize, n, out)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]map[string]json.RawMessage
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if _, ok := back["durations"]; ok {
		t.Errorf("JSON snapshot carries a durations object:\n%s", raw)
	}
	for _, name := range []string{HistShardSize, SpanCoreSearch} {
		if _, ok := back["histograms"][name]; !ok {
			t.Errorf("JSON histograms lack %s", name)
		}
	}
}

func TestCanonicalNameLists(t *testing.T) {
	seen := make(map[string]bool)
	for _, list := range [][]string{CanonicalCounters(), CanonicalGauges(), CanonicalPhases()} {
		for _, name := range list {
			if seen[name] {
				t.Errorf("duplicate canonical name %q", name)
			}
			seen[name] = true
		}
	}
}

// TestWriteDistributions pins the shared distribution table: one row
// per value histogram with its count, min, p50, p99 and max, no row for
// a duration histogram, nothing for a snapshot without value
// histograms, and the same table inside Format.
func TestWriteDistributions(t *testing.T) {
	r := NewRegistry()
	var empty strings.Builder
	r.Observe(SpanCoreSearch, int64(time.Millisecond))
	r.Snapshot().WriteDistributions(&empty)
	if empty.Len() != 0 {
		t.Errorf("a snapshot without value histograms wrote:\n%s", empty.String())
	}
	for _, v := range []int64{3, 5, 5, 7} {
		r.Observe(HistShardSize, v)
	}
	r.Observe(HistCoreJustifySteps, 2)
	snap := r.Snapshot()
	var b strings.Builder
	snap.WriteDistributions(&b)
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "distribution") {
		t.Fatalf("want a header and two rows, got:\n%s", b.String())
	}
	h := snap.Histogram(HistShardSize)
	row := fmt.Sprintf("%-34s %8d %10d %10d %10d %10d", HistShardSize, 4, 3, h.P50, h.P99, 7)
	if lines[1] != fmt.Sprintf("%-34s %8d %10d %10d %10d %10d", HistCoreJustifySteps, 1, 2, 2, 2, 2) || lines[2] != row {
		t.Errorf("rows out of name order or wrong:\n%s", b.String())
	}
	if strings.Contains(b.String(), SpanCoreSearch) {
		t.Errorf("duration histogram %s in the distribution table:\n%s", SpanCoreSearch, b.String())
	}
	if !strings.Contains(snap.Format(), b.String()) {
		t.Errorf("Format() does not carry the distribution table:\n%s", snap.Format())
	}
}
