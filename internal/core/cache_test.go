package core

import (
	"fmt"
	"testing"

	"repro/internal/db"
	"repro/internal/lru"
)

// TestInducedCacheEvictionOrder pins the contract of the engine's
// induced-database cache, an lru.Cache: eviction removes
// exactly the least recently used entry, and both get and put refresh
// recency.
func TestInducedCacheEvictionOrder(t *testing.T) {
	mark := func() *db.Database { return db.New(db.NewSchema(), nil) }
	d1, d2, d3, d4 := mark(), mark(), mark(), mark()

	c := lru.New[*db.Database](2)
	if c.Put("a", d1) {
		t.Fatal("put a evicted an entry from an empty cache")
	}
	if c.Put("b", d2) {
		t.Fatal("put b evicted an entry below capacity")
	}
	// Touch a so b becomes least recently used.
	if got, ok := c.Get("a"); !ok || got != d1 {
		t.Fatalf("get a = (%v, %v), want (d1, true)", got, ok)
	}
	if !c.Put("c", d3) {
		t.Fatal("put c evicted nothing from a full cache")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction; LRU should have dropped it")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a was evicted despite being most recently used")
	}
	// put on an existing key must refresh recency, not evict: c is now
	// LRU, refresh it via put, then a must be the next victim.
	if c.Put("c", d3) {
		t.Fatal("refreshing put evicted an entry")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing after refreshing put")
	}
	// Order now: c (MRU), a (LRU).
	c.Get("c")
	if !c.Put("d", d4) {
		t.Fatal("put d evicted nothing from a full cache")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived; it was the least recently used entry")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c was evicted out of LRU order")
	}
	if _, ok := c.Get("d"); !ok {
		t.Fatal("d missing right after insertion")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

// TestInducedCacheEvictionSequence drives a longer access pattern and
// checks the victim is always the oldest untouched key.
func TestInducedCacheEvictionSequence(t *testing.T) {
	c := lru.New[*db.Database](3)
	ind := db.New(db.NewSchema(), nil)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), ind)
	}
	// Recency (old -> new): k0 k1 k2. Touch k0: k1 k2 k0.
	c.Get("k0")
	c.Put("k3", ind) // evicts k1
	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 should have been evicted")
	}
	// Recency: k2 k0 k3.
	c.Put("k4", ind) // evicts k2
	if _, ok := c.Get("k2"); ok {
		t.Fatal("k2 should have been evicted")
	}
	for _, k := range []string{"k0", "k3", "k4"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s missing from cache", k)
		}
	}
}
