package serve

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/obs"
)

func TestResponseCacheLRU(t *testing.T) {
	rec := obs.NewRegistry()
	c := newResponseCache(3, rec)

	for i := 0; i < 3; i++ {
		c.put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	// Touch k0 so k1 becomes least recently used.
	if body, ok := c.get("k0"); !ok || !bytes.Equal(body, []byte{0}) {
		t.Fatalf("get k0 = %v, %v", body, ok)
	}
	c.put("k3", []byte{3})
	if _, ok := c.get("k1"); ok {
		t.Error("k1 survived eviction, want LRU out")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%s evicted, want kept", k)
		}
	}
	if c.len() != 3 {
		t.Errorf("len = %d, want 3", c.len())
	}
	snap := rec.Snapshot()
	if snap.Counter(obs.ServeCacheEvictions) != 1 {
		t.Errorf("evictions = %d, want 1", snap.Counter(obs.ServeCacheEvictions))
	}
	if snap.Counter(obs.ServeCacheHits) != 4 || snap.Counter(obs.ServeCacheMisses) != 1 {
		t.Errorf("hits/misses = %d/%d, want 4/1",
			snap.Counter(obs.ServeCacheHits), snap.Counter(obs.ServeCacheMisses))
	}
}

func TestResponseCacheUpdateExisting(t *testing.T) {
	c := newResponseCache(2, nil)
	c.put("k", []byte("old"))
	c.put("k", []byte("new"))
	if body, ok := c.get("k"); !ok || string(body) != "new" {
		t.Errorf("get after overwrite = %q, %v", body, ok)
	}
	if c.len() != 1 {
		t.Errorf("len = %d, want 1", c.len())
	}
}

func TestResponseCacheDisabled(t *testing.T) {
	var c *responseCache // newResponseCache(max<1) returns nil
	if got := newResponseCache(0, nil); got != nil {
		t.Error("max 0 should disable the cache")
	}
	c.put("k", []byte("v")) // must not panic
	if _, ok := c.get("k"); ok {
		t.Error("nil cache returned a hit")
	}
	if c.len() != 0 {
		t.Error("nil cache has nonzero len")
	}
}

func TestFingerprintStable(t *testing.T) {
	a, b := fixtures.New(), fixtures.New()
	fa, fb := a.DB.Fingerprint(), b.DB.Fingerprint()
	if fa != fb {
		t.Errorf("same instance, different fingerprints: %s vs %s", fa, fb)
	}
	// The bib testdata is the Figure 1 instance in file form; parsing it
	// (different insertion order, different interner ids) must reproduce
	// the exact same content hash.
	bib := loadBib(t)
	if got := bib.db.Fingerprint(); got != fa {
		t.Errorf("bib file parse fingerprint %s != fixture fingerprint %s", got, fa)
	}
	// Any content change moves the hash.
	c := fixtures.New()
	c.DB.MustInsert("Author", "a99", "fresh@example.org", "Nowhere")
	if got := c.DB.Fingerprint(); got == fa {
		t.Error("fingerprint unchanged after inserting a fact")
	}
}
