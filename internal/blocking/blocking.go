// Package blocking implements the candidate-reduction technique the
// paper lists as a planned optimization (Section 7: "we plan to develop
// static analysis techniques for reducing the number of references to
// be compared (blocking)").
//
// Blocking avoids the quadratic comparison of all value pairs when
// materialising a threshold similarity predicate: values are hashed
// into (possibly overlapping) blocks by cheap keys — tokens, prefixes,
// q-grams — and the similarity metric runs only within blocks. The
// result is an explicit sim.Table that plugs directly into rule
// evaluation, so the LACE engines are unchanged; only the similarity
// extension is computed faster.
//
// Blocking trades recall for speed in the usual way: a pair is found
// only if the two values share at least one key. Stats quantifies the
// candidate reduction, and the tests measure recall against the
// brute-force extension on typo-style workloads.
package blocking

import (
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

// KeyFunc maps a value to its blocking keys.
type KeyFunc func(value string) []string

// Tokens blocks on lowercase whitespace-separated tokens — the standard
// key for multi-word strings (titles, names). Repeated tokens ("the the
// end") yield one key each.
func Tokens(value string) []string {
	return dedupKeys(strings.Fields(strings.ToLower(value)))
}

// dedupKeys removes repeated keys, keeping first-occurrence order, so a
// value never counts twice in the same block's candidate Stats.
func dedupKeys(keys []string) []string {
	seen := make(map[string]bool, len(keys))
	out := keys[:0]
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// Prefix returns a KeyFunc blocking on the lowercase n-byte prefix —
// effective when errors concentrate late in the string.
func Prefix(n int) KeyFunc {
	return func(value string) []string {
		v := strings.ToLower(value)
		if len(v) > n {
			v = v[:n]
		}
		return []string{v}
	}
}

// QGrams returns a KeyFunc blocking on all distinct lowercase q-grams —
// robust to single edits anywhere (an edit damages at most q grams).
func QGrams(q int) KeyFunc {
	return func(value string) []string {
		v := strings.ToLower(value)
		if len(v) <= q {
			return []string{v}
		}
		out := make([]string, 0, len(v)-q+1)
		for i := 0; i+q <= len(v); i++ {
			out = append(out, v[i:i+q])
		}
		return dedupKeys(out)
	}
}

// Union combines key functions (a pair is a candidate if any scheme
// blocks it together). Keys emitted by more than one scheme are
// deduplicated.
func Union(fns ...KeyFunc) KeyFunc {
	return func(value string) []string {
		var out []string
		for _, fn := range fns {
			out = append(out, fn(value)...)
		}
		return dedupKeys(out)
	}
}

// Stats reports the work saved by blocking.
type Stats struct {
	Values         int
	TotalPairs     int // n*(n-1)/2, the brute-force comparisons
	CandidatePairs int // distinct pairs sharing at least one key
	MetricCalls    int // comparisons actually performed
	Matches        int // pairs admitted into the table
}

// ReductionRatio is 1 - candidates/total (1 = everything skipped).
func (s Stats) ReductionRatio() float64 {
	if s.TotalPairs == 0 {
		return 0
	}
	return 1 - float64(s.CandidatePairs)/float64(s.TotalPairs)
}

// BuildTable materialises the extension of the threshold predicate
// metric >= theta over the given values, comparing only pairs that
// share a blocking key. Values are deduplicated first. The build runs
// under a blocking.build span, and the recorder's blocking.pairs.kept /
// blocking.pairs.pruned / blocking.pairs.matched counters advance by the
// candidate pairs compared, the pairs skipped by blocking, and the
// pairs admitted into the table. A nil recorder is a no-op.
func BuildTable(name string, values []string, metric sim.Metric, theta float64, keys KeyFunc, rec obs.Recorder) (*sim.Table, Stats) {
	rec = obs.OrNop(rec)
	sp := rec.Start(obs.SpanBlockingBuild).AttrStr("table", name)
	defer sp.End()
	seen := make(map[string]bool, len(values))
	var vals []string
	for _, v := range values {
		if !seen[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	var st Stats
	st.Values = len(vals)
	st.TotalPairs = len(vals) * (len(vals) - 1) / 2

	blocks := make(map[string][]int)
	for i, v := range vals {
		kseen := make(map[string]bool)
		for _, k := range keys(v) {
			if !kseen[k] {
				kseen[k] = true
				blocks[k] = append(blocks[k], i)
			}
		}
	}
	tbl := sim.NewTable(name)
	compared := make(map[[2]int]bool)
	for _, members := range blocks {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				a, b := members[i], members[j]
				if a > b {
					a, b = b, a
				}
				key := [2]int{a, b}
				if compared[key] {
					continue
				}
				compared[key] = true
				st.CandidatePairs++
				st.MetricCalls++
				if metric(vals[a], vals[b]) >= theta {
					tbl.Add(vals[a], vals[b])
					st.Matches++
				}
			}
		}
	}
	rec.Inc(obs.BlockingKept, int64(st.CandidatePairs))
	rec.Inc(obs.BlockingPruned, int64(st.TotalPairs-st.CandidatePairs))
	rec.Inc(obs.BlockingMatches, int64(st.Matches))
	sp.AttrInt("kept", int64(st.CandidatePairs)).AttrInt("matched", int64(st.Matches))
	return tbl, st
}

// BruteTable is the unblocked reference: all pairs compared. Used by
// tests and the recall measurement.
func BruteTable(name string, values []string, metric sim.Metric, theta float64) *sim.Table {
	seen := make(map[string]bool, len(values))
	var vals []string
	for _, v := range values {
		if !seen[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	tbl := sim.NewTable(name)
	for i := 0; i < len(vals); i++ {
		for j := i + 1; j < len(vals); j++ {
			if metric(vals[i], vals[j]) >= theta {
				tbl.Add(vals[i], vals[j])
			}
		}
	}
	return tbl
}

// Recall returns the fraction of the reference table's pairs that the
// blocked table retains (1 when the reference is empty).
func Recall(blocked, reference *sim.Table) float64 {
	if reference.Len() == 0 {
		return 1
	}
	// sim.Table has no iteration API by design; measure via Len after
	// verifying blocked ⊆ reference is guaranteed by construction.
	return float64(blocked.Len()) / float64(reference.Len())
}
