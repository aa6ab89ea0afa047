package sim

import (
	"fmt"
	"sort"
	"sync"
)

// Predicate is a binary similarity predicate over constant names. All
// implementations must be symmetric and reflexive, matching the paper's
// use of ≈ ("the symmetric and reflexive closure of ..."). Symmetry is
// relied on beyond the memo: a query plan treats a similarity atom as
// unordered when it detects a rule body symmetric in its head
// variables, and the closure then enumerates each merge in one
// orientation only (cq.Plan.Symmetric), so an asymmetric predicate
// would lose merges. Implementations must also be safe for
// concurrent use: one registry serves every goroutine of a session, its
// parallel walk workers, request forks and shard solves, and every
// epoch of a streaming lineage. Holds must be a pure function of the
// two names, as the paper's similarity relations are fixed: a verdict
// is never invalidated by a change to the database. Table is
// read-only after construction and Threshold locks its memo.
type Predicate interface {
	// Name is the identifier used in rule bodies.
	Name() string
	// Holds reports whether the pair (a, b) is in the predicate's
	// extension.
	Holds(a, b string) bool
}

// Metric is a normalized string similarity in [0,1]. A metric must be
// symmetric, metric(a,b) == metric(b,a) exactly, as the paper's
// similarity metrics are: Threshold scores each unordered pair once.
// Every metric in this package is.
type Metric func(a, b string) float64

// Threshold builds a predicate that holds when metric(a,b) >= theta.
// Reflexivity requires metric(a,a) = 1 and theta <= 1, which all metrics
// in this package satisfy; symmetry of the predicate rests on the
// metric's own, since each unordered pair is scored once, on its names
// in sorted order. Results are memoized per unordered pair: the solver
// re-checks the same pairs on every fixpoint round and every candidate
// partition, so each metric computation should happen once.
//
// The memo is one map behind a read-write lock, shared by every
// goroutine that holds the predicate. A hit takes the read lock and
// allocates nothing; a miss computes the metric outside the lock and
// stores the verdict under the write lock. Verdicts are pure functions
// of the two names, so two goroutines racing on one miss store the
// same value, and a verdict is never stale: nothing ever removes one
// except the reset at memoCap.
func Threshold(name string, metric Metric, theta float64) Predicate {
	return &thresholdPred{name: name, metric: metric, theta: theta, memo: make(map[memoKey]bool)}
}

// memoKey is the memo key of an unordered name pair, stored with
// a <= b. Keeping the names as separate fields (rather than joining
// them with a separator that may itself occur in a name) makes distinct
// pairs distinct keys, and a hit allocates nothing.
type memoKey struct{ a, b string }

// memoCap bounds the memo so a pathological workload cannot hold the
// cross product of its active domain in memory. A miss that finds the
// memo full empties it and starts again, so a long-lived predicate
// whose names churn keeps memoizing the pairs now in use.
const memoCap = 1 << 20

type thresholdPred struct {
	name   string
	metric Metric
	theta  float64
	mu     sync.RWMutex
	memo   map[memoKey]bool
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
	p.mu.RLock()
	v, ok := p.memo[key]
	p.mu.RUnlock()
	if ok {
		return v
	}
	v = p.metric(a, b) >= p.theta
	p.mu.Lock()
	if len(p.memo) >= memoCap {
		clear(p.memo)
	}
	p.memo[key] = v
	p.mu.Unlock()
	return v
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
