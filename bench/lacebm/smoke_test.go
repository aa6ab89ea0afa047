package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that no operation failed and that each run emitted exactly the
// metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and resolves instances")
	}
	m, _ := loadManifest(t)
	tmpDir := t.TempDir()
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			var r *runResult
			var err error
			switch {
			case trace:
				r, err = runTraced(w, 5, 1, tmpDir)
			case w == "read-hot" || w == "read-cold":
				r, err = runRead(w, 5, 1, 2)
			default:
				r, err = runOne(w, 5, 1, false, tmpDir)
			}
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !r.correct() || r.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", w, trace, r.Attempted, r.Failed, r.Problems)
			}
			var out bytes.Buffer
			if err := r.report(&out, io.Discard); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace=%v: last line %q: %v", w, trace, lines[len(lines)-1], err)
			}
			want := m.EndToEnd
			if trace {
				want = m.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, manifest declares %d", w, trace, len(line.Metrics), len(want))
			}
			for _, mm := range want {
				got, ok := line.Metrics[mm.Name]
				if !ok || got.Unit != mm.Unit {
					t.Errorf("%s trace=%v: metric %s: got %+v, want unit %s", w, trace, mm.Name, got, mm.Unit)
				}
			}
		}
	}
}
