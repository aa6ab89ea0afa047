//go:build !race

// The race detector changes allocation counts, so this guard runs only
// in non-race builds.

package obs

import "testing"

// TestObserveAllocs pins that recording a sample or a count under a
// name seen before allocates nothing: Registry.Observe, Local.Observe
// and Local.Inc only update an existing histogram or map entry.
// Local.Flush is left out: it clears the buffers, so the next Observe
// allocates a fresh histogram.
func TestObserveAllocs(t *testing.T) {
	reg := NewRegistry()
	loc := NewLocal(reg)
	reg.Observe(SpanCoreSearch, 1)
	loc.Observe(HistShardSize, 1)
	loc.Inc(CoreSearchStates, 1)
	for name, f := range map[string]func(){
		"Registry.Observe": func() { reg.Observe(SpanCoreSearch, 1500) },
		"Local.Observe":    func() { loc.Observe(HistShardSize, 7) },
		"Local.Inc":        func() { loc.Inc(CoreSearchStates, 3) },
	} {
		if got := testing.AllocsPerRun(100, f); got != 0 {
			t.Errorf("warm %s allocates %.1f objects, want 0", name, got)
		}
	}
}
