package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0},
		{2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 20, 20}, {1<<20 + 1, 21},
		{1 << 49, 49}, {1<<49 + 1, histBuckets}, {1 << 60, histBuckets},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Invariant: every finite sample v satisfies v <= BucketUpper(bucketOf(v)).
	for v := int64(1); v < 1<<16; v += 13 {
		if b := bucketOf(v); v > BucketUpper(b) {
			t.Fatalf("sample %d exceeds its bucket bound %d", v, BucketUpper(b))
		}
	}
}

func TestHistQuantilesAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Hist
	samples := make([]int64, 0, 5000)
	for i := 0; i < 5000; i++ {
		// Log-uniform-ish spread: the regime histograms are built for.
		v := int64(1) << uint(rng.Intn(24))
		v += rng.Int63n(v + 1)
		h.Observe(v)
		samples = append(samples, v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	s := h.Stats()

	if s.Count != int64(len(samples)) {
		t.Fatalf("count = %d, want %d", s.Count, len(samples))
	}
	var sum int64
	for _, v := range samples {
		sum += v
	}
	if s.Sum != sum {
		t.Fatalf("sum = %d, want %d", s.Sum, sum)
	}
	if s.Min != samples[0] || s.Max != samples[len(samples)-1] {
		t.Fatalf("min/max = %d/%d, want %d/%d", s.Min, s.Max, samples[0], samples[len(samples)-1])
	}
	// Power-of-two buckets bound the quantile estimate by 2x of the
	// exact order statistic (plus bucket-edge slack at the extremes).
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := samples[int(q*float64(len(samples)-1))]
		got := s.Quantile(q)
		if got < exact/2 || got > exact*2 {
			t.Errorf("q%.3f = %d, exact %d: outside 2x bound", q, got, exact)
		}
		if got < s.Min || got > s.Max {
			t.Errorf("q%.3f = %d outside observed [%d, %d]", q, got, s.Min, s.Max)
		}
	}
}

func TestHistSingleSample(t *testing.T) {
	var h Hist
	h.Observe(1500)
	s := h.Stats()
	for _, q := range []int64{s.P50, s.P90, s.P99, s.P999} {
		if q != 1500 {
			t.Fatalf("single-sample quantile = %d, want 1500 (stats %+v)", q, s)
		}
	}
	if len(s.Buckets) != 1 || s.Buckets[0].Count != 1 {
		t.Fatalf("buckets = %+v, want one bucket with count 1", s.Buckets)
	}
}

func TestHistMergeEquivalentToCombinedObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a, b, both Hist
	for i := 0; i < 1000; i++ {
		v := rng.Int63n(1 << 30)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		both.Observe(v)
	}
	a.Merge(&b)
	if a != both {
		t.Fatalf("merged histogram differs from combined-observe histogram")
	}
	// Merging an empty histogram is a no-op.
	var empty Hist
	before := a
	a.Merge(&empty)
	a.Merge(nil)
	if a != before {
		t.Fatalf("merging empty/nil histogram changed state")
	}
}

func TestHistOverflowBucket(t *testing.T) {
	var h Hist
	h.Observe(1 << 55)
	h.Observe(100)
	s := h.Stats()
	if len(s.Buckets) != 2 {
		t.Fatalf("buckets = %+v, want 2", s.Buckets)
	}
	last := s.Buckets[len(s.Buckets)-1]
	if last.Le != -1 || last.Count != 1 {
		t.Fatalf("overflow bucket = %+v, want {Le:-1 Count:1}", last)
	}
	if s.P999 > s.Max {
		t.Fatalf("p999 %d exceeds max %d", s.P999, s.Max)
	}
}

func TestLocalFlushMergesObservations(t *testing.T) {
	reg := NewRegistry()
	loc := NewLocal(reg)
	direct := NewRegistry()
	for i := 1; i <= 500; i++ {
		d := int64(time.Duration(i) * time.Microsecond)
		loc.Observe(SpanASPSolve, d)
		direct.Observe(SpanASPSolve, d)
	}
	// Nothing reaches the registry before Flush.
	if got := reg.Snapshot().Duration(SpanASPSolve).Count; got != 0 {
		t.Fatalf("pre-flush registry count = %d, want 0", got)
	}
	loc.Flush()
	got := reg.Snapshot()
	want := direct.Snapshot()
	if got.Duration(SpanASPSolve) != want.Duration(SpanASPSolve) {
		t.Fatalf("flushed durations %+v != direct %+v",
			got.Duration(SpanASPSolve), want.Duration(SpanASPSolve))
	}
	gh, wh := got.Histograms[SpanASPSolve], want.Histograms[SpanASPSolve]
	if gh.Count != wh.Count || gh.Sum != wh.Sum || gh.P99 != wh.P99 {
		t.Fatalf("flushed histogram %+v != direct %+v", gh, wh)
	}
	// Flush resets the buffer: a second flush adds nothing.
	loc.Flush()
	if again := reg.Snapshot().Duration(SpanASPSolve).Count; again != 500 {
		t.Fatalf("double flush: count = %d, want 500", again)
	}
}

func TestNestedLocalFlush(t *testing.T) {
	reg := NewRegistry()
	parent := NewLocal(reg)
	child := NewLocal(parent)
	child.Observe(SpanASPGround, int64(5*time.Millisecond))
	child.Inc(ASPDecisions, 3)
	child.Flush()
	if got := reg.Snapshot().Duration(SpanASPGround).Count; got != 0 {
		t.Fatalf("child flush leaked past parent: count = %d", got)
	}
	parent.Flush()
	s := reg.Snapshot()
	if s.Duration(SpanASPGround).Count != 1 || s.Counters[ASPDecisions] != 3 {
		t.Fatalf("after parent flush: hists=%+v counters=%+v", s.Histograms, s.Counters)
	}
}

func TestRegistryStrictMode(t *testing.T) {
	reg := NewRegistry()
	reg.SetStrict(true)
	// Canonical and prefix-declared names are accepted.
	reg.Inc(ServeRequests, 1)
	reg.Observe(ServeRequestPrefix+"certain", int64(time.Millisecond))
	reg.Gauge(ServePoolInUse, 2)
	reg.Start(SpanServeRequest).End()

	for _, call := range []func(){
		func() { reg.Inc("serve.requets", 1) }, // typo
		func() { reg.Observe("made.up.histogram", int64(time.Second)) },
		func() { reg.Gauge("bogus.gauge", 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("strict registry accepted undeclared name")
				}
			}()
			call()
		}()
	}

	reg.SetStrict(false)
	reg.Inc("serve.requets", 1) // tolerated again
}

// TestSnapshotConsistencyUnderRace pins the point-in-time guarantee:
// while writers hammer the registry, every snapshot must satisfy the
// cross-map invariants (the duration read of a histogram agrees with it
// exactly, and counters never go backwards). Run with -race.
func TestSnapshotConsistencyUnderRace(t *testing.T) {
	reg := NewRegistry()
	const writers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				reg.Inc(ServeRequests, 1)
				reg.Observe(SpanASPSolve, rng.Int63n(1<<20))
				reg.Gauge(ServeInflight, rng.Int63n(10))
			}
		}(int64(w))
	}
	var lastCount int64
	for i := 0; i < 200; i++ {
		s := reg.Snapshot()
		ds, hs := s.Duration(SpanASPSolve), s.Histograms[SpanASPSolve]
		if ds.Count != hs.Count || int64(ds.Total) != hs.Sum ||
			int64(ds.Min) != hs.Min || int64(ds.Max) != hs.Max {
			t.Fatalf("snapshot %d: duration read %+v != histogram %+v", i, ds, hs)
		}
		if c := s.Counters[ServeRequests]; c < lastCount {
			t.Fatalf("snapshot %d: counter went backwards (%d after %d)", i, c, lastCount)
		} else {
			lastCount = c
		}
	}
	close(stop)
	wg.Wait()
}
