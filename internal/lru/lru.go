// Package lru is a least-recently-used cache from string keys to
// values. When full it evicts exactly one entry, the least recently
// used, so a long run keeps its working set warm instead of losing the
// whole cache to a wholesale flush. A Cache is not safe for concurrent
// use; a caller that shares one guards it with its own lock.
package lru

// Cache holds at most a fixed number of entries, ordered by recency in
// a doubly linked list.
type Cache[V any] struct {
	max        int
	m          map[string]*entry[V]
	head, tail *entry[V] // head = most recently used
}

type entry[V any] struct {
	key        string
	val        V
	prev, next *entry[V]
}

// New returns an empty cache of size entries (at least 1).
func New[V any](size int) *Cache[V] {
	// The map grows on demand: preallocating size buckets would cost
	// ~50 B/entry up front even for a cache that never fills.
	return &Cache[V]{max: max(size, 1), m: make(map[string]*entry[V])}
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int { return len(c.m) }

// Cap returns the most entries the cache holds.
func (c *Cache[V]) Cap() int { return c.max }

// Get returns the value cached under key, marking it most recently
// used.
func (c *Cache[V]) Get(key string) (V, bool) {
	e, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.moveToFront(e)
	return e.val, true
}

// Put inserts or refreshes key, marking it most recently used, and
// reports whether it evicted the least recently used entry to make
// room.
func (c *Cache[V]) Put(key string, val V) (evicted bool) {
	if e, ok := c.m[key]; ok {
		e.val = val
		c.moveToFront(e)
		return false
	}
	if len(c.m) >= c.max {
		lru := c.tail
		c.unlink(lru)
		delete(c.m, lru.key)
		evicted = true
	}
	e := &entry[V]{key: key, val: val}
	c.m[key] = e
	c.pushFront(e)
	return evicted
}

func (c *Cache[V]) moveToFront(e *entry[V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache[V]) pushFront(e *entry[V]) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache[V]) unlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
