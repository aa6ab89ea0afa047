package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Predicate is a binary similarity predicate over constant names. All
// implementations must be symmetric and reflexive, matching the paper's
// use of ≈ ("the symmetric and reflexive closure of ...").
type Predicate interface {
	// Name is the identifier used in rule bodies.
	Name() string
	// Holds reports whether the pair (a, b) is in the predicate's
	// extension.
	Holds(a, b string) bool
}

// Metric is a normalized string similarity in [0,1].
type Metric func(a, b string) float64

// Threshold builds a predicate that holds when metric(a,b) >= theta.
// Reflexivity requires metric(a,a) = 1 and theta <= 1, which all metrics
// in this package satisfy. Results are memoized per unordered pair: the
// solver re-checks the same pairs on every fixpoint round and every
// candidate partition, so each metric computation should happen once.
//
// The memo is two-tier: a plain map owned by the predicate instance
// (single-goroutine hot path, one map lookup per repeat query) backed
// by a read-mostly sync.Map shared between the instance and every view
// produced by Fork. A predicate instance itself must only be used from
// one goroutine at a time; concurrent workers each take a Fork, which
// shares the computed results without sharing the unsynchronized tier.
func Threshold(name string, metric Metric, theta float64) Predicate {
	return &thresholdPred{name: name, metric: metric, theta: theta,
		local: make(map[memoKey]bool), shared: &sync.Map{}, sharedLen: &atomic.Int64{}}
}

// memoKey is the memo key of an unordered name pair, stored with
// a <= b. Keeping the names as separate fields (rather than joining
// them with a separator that may itself occur in a name) makes distinct
// pairs distinct keys, and a local-tier hit allocates nothing.
type memoKey struct{ a, b string }

// memoCap bounds each memo tier so a pathological workload cannot hold
// the cross product of its active domain in memory.
const memoCap = 1 << 20

type thresholdPred struct {
	name   string
	metric Metric
	theta  float64
	// local is the per-instance tier: unsynchronized, single goroutine.
	local map[memoKey]bool
	// shared and sharedLen form the cross-fork tier, keyed by memoKey.
	shared    *sync.Map
	sharedLen *atomic.Int64
}

func (p *thresholdPred) Name() string { return p.name }

func (p *thresholdPred) Holds(a, b string) bool {
	if a == b {
		return true
	}
	if a > b {
		a, b = b, a
	}
	key := memoKey{a, b}
	if v, ok := p.local[key]; ok {
		return v
	}
	if v, ok := p.shared.Load(key); ok {
		held := v.(bool)
		if len(p.local) < memoCap {
			p.local[key] = held
		}
		return held
	}
	v := p.metric(a, b) >= p.theta || p.metric(b, a) >= p.theta
	if len(p.local) < memoCap {
		p.local[key] = v
	}
	if p.sharedLen.Load() < memoCap {
		if _, loaded := p.shared.LoadOrStore(key, v); !loaded {
			p.sharedLen.Add(1)
		}
	}
	return v
}

// fork returns a view with a fresh unsynchronized tier sharing the
// read-mostly tier, safe to use from a different goroutine than p.
func (p *thresholdPred) fork() Predicate {
	return &thresholdPred{name: p.name, metric: p.metric, theta: p.theta,
		local: make(map[memoKey]bool), shared: p.shared, sharedLen: p.sharedLen}
}

// Table is a predicate given by an explicit extension; its Holds is the
// reflexive-symmetric closure of the pairs added with Add. This is how
// Figure 1 of the paper specifies ≈.
type Table struct {
	name  string
	pairs map[[2]string]bool
}

// NewTable returns an empty extension table named name.
func NewTable(name string) *Table {
	return &Table{name: name, pairs: make(map[[2]string]bool)}
}

// Add puts (a,b) into the extension (unordered).
func (t *Table) Add(a, b string) *Table {
	if a > b {
		a, b = b, a
	}
	t.pairs[[2]string{a, b}] = true
	return t
}

// Name implements Predicate.
func (t *Table) Name() string { return t.name }

// Holds implements Predicate: reflexive-symmetric closure of the table.
func (t *Table) Holds(a, b string) bool {
	if a == b {
		return true
	}
	if a > b {
		a, b = b, a
	}
	return t.pairs[[2]string{a, b}]
}

// Len returns the number of (unordered, non-reflexive) pairs.
func (t *Table) Len() int { return len(t.pairs) }

// Registry holds the similarity predicates available to a specification.
type Registry struct {
	preds map[string]Predicate
}

// NewRegistry returns a registry containing the given predicates.
func NewRegistry(preds ...Predicate) *Registry {
	r := &Registry{preds: make(map[string]Predicate, len(preds))}
	for _, p := range preds {
		r.preds[p.Name()] = p
	}
	return r
}

// Register adds a predicate, replacing any predicate of the same name.
func (r *Registry) Register(p Predicate) { r.preds[p.Name()] = p }

// Lookup returns the named predicate.
func (r *Registry) Lookup(name string) (Predicate, bool) {
	p, ok := r.preds[name]
	return p, ok
}

// MustLookup returns the named predicate or an error mentioning the
// available names.
func (r *Registry) MustLookup(name string) (Predicate, error) {
	if p, ok := r.preds[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("sim: unknown similarity predicate %q (have %v)", name, r.Names())
}

// Fork returns a registry whose predicates are safe to use from a
// different goroutine than the receiver's. Threshold predicates are
// forked (fresh unsynchronized memo tier, shared read-mostly tier);
// aliases are rebuilt around the fork of their target so alias and
// target stay the same instance; Table extensions and any external
// Predicate implementations are shared as-is — Tables are read-only
// after construction, and external implementations must be safe for
// concurrent use if the engine is run with parallelism. A nil receiver
// forks to nil.
func (r *Registry) Fork() *Registry {
	if r == nil {
		return nil
	}
	forked := make(map[Predicate]Predicate, len(r.preds))
	var forkOf func(p Predicate) Predicate
	forkOf = func(p Predicate) Predicate {
		if f, ok := forked[p]; ok {
			return f
		}
		var f Predicate
		switch q := p.(type) {
		case *thresholdPred:
			f = q.fork()
		case alias:
			f = alias{q.name, forkOf(q.p)}
		default:
			f = p
		}
		forked[p] = f
		return f
	}
	nr := &Registry{preds: make(map[string]Predicate, len(r.preds))}
	for n, p := range r.preds {
		nr.preds[n] = forkOf(p)
	}
	return nr
}

// Invalidate drops every memoized similarity verdict that mentions one
// of the given constant names from the shared (cross-fork) memo tier of
// each threshold predicate, returning the number of entries dropped.
// The streaming layer calls it when facts are retracted, so the memo
// does not accrete verdicts for names the database no longer contains.
//
// Only the shared sync.Map tier is touched — deleting from it is safe
// while concurrent forks read — so a fork's unsynchronized local tier
// may retain a stale-but-correct entry until the fork is discarded
// (verdicts are pure functions of the names, so retained entries are
// never wrong, merely unused). Table predicates are extensional and are
// left alone. A nil receiver drops nothing.
func (r *Registry) Invalidate(names ...string) int {
	if r == nil || len(names) == 0 {
		return 0
	}
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	dropped := 0
	seen := make(map[*sync.Map]bool)
	for _, p := range r.preds {
		for {
			if a, ok := p.(alias); ok {
				p = a.p
				continue
			}
			break
		}
		tp, ok := p.(*thresholdPred)
		if !ok || seen[tp.shared] {
			continue
		}
		seen[tp.shared] = true
		tp.shared.Range(func(k, _ any) bool {
			if key := k.(memoKey); set[key.a] || set[key.b] {
				tp.shared.Delete(k)
				tp.sharedLen.Add(-1)
				dropped++
			}
			return true
		})
	}
	return dropped
}

// Names returns the sorted predicate names.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.preds))
	for n := range r.preds {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Default returns a registry with the standard metrics under conventional
// names: "lev08" (normalized Levenshtein >= 0.8), "jw90" (Jaro-Winkler >=
// 0.9), and "tri50" (trigram Jaccard >= 0.5), plus "~" as an alias for
// jw90 used by the infix spec syntax.
func Default() *Registry {
	jw := Threshold("jw90", JaroWinkler, 0.9)
	return NewRegistry(
		Threshold("lev08", NormalizedLevenshtein, 0.8),
		jw,
		Threshold("tri50", TrigramJaccard, 0.5),
		alias{"~", jw},
	)
}

type alias struct {
	name string
	p    Predicate
}

func (a alias) Name() string           { return a.name }
func (a alias) Holds(x, y string) bool { return a.p.Holds(x, y) }
