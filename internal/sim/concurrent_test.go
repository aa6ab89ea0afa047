package sim

import (
	"sync"
	"testing"
)

// concurrentWords holds near-duplicate and distinct names, so a jw90
// sweep over its pairs yields both verdicts.
var concurrentWords = []string{"smith", "smyth", "smithe", "jones", "joness", "brown", "jonathan", "jonathon"}

// holdsAll asks p for every pair of concurrentWords, reporting any
// verdict that differs from the bare metric. It may run on any
// goroutine, so it reports with t.Error.
func holdsAll(t *testing.T, p Predicate) {
	for _, a := range concurrentWords {
		for _, b := range concurrentWords {
			want := a == b || JaroWinkler(a, b) >= 0.9 || JaroWinkler(b, a) >= 0.9
			if got := p.Holds(a, b); got != want {
				t.Errorf("Holds(%s, %s) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// TestConcurrentHolds: goroutines sharing one threshold predicate (and
// its alias) are race-free under -race, and every verdict, whether
// computed or read from the shared memo, equals the bare metric.
func TestConcurrentHolds(t *testing.T) {
	reg := Default()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		name := "jw90"
		if g%2 == 1 {
			name = "~"
		}
		p, _ := reg.Lookup(name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			holdsAll(t, p)
		}()
	}
	wg.Wait()
	p, _ := reg.Lookup("jw90")
	holdsAll(t, p)
}
