// Package sim implements the externally defined similarity predicates of
// LACE rule bodies. The paper treats each similarity predicate as a fixed
// binary relation, "typically defined by applying a similarity metric,
// e.g. edit distance, and keeping those pairs of values whose score
// exceeds a given threshold". This package provides the standard string
// metrics (Levenshtein, Jaro-Winkler, trigram Jaccard), threshold
// predicates built on them, and explicit extension tables (used to
// reproduce Figure 1, where the extension of ≈ is given directly).
package sim

import (
	"strings"
	"unicode/utf8"
)

// Levenshtein returns the edit distance between a and b (unit costs for
// insertion, deletion and substitution), computed over runes. When both
// strings are ASCII and the shorter has at most 64 bytes it runs the
// bit-parallel kernel of levenshteinASCII and allocates nothing; other
// inputs take the rune DP of levenshteinDP.
func Levenshtein(a, b string) int {
	if isASCII(a) && isASCII(b) {
		return levenshteinASCII(a, b)
	}
	return levenshteinDP(a, b)
}

// isASCII reports whether every byte of s is below utf8.RuneSelf, so
// that bytes and runes coincide.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// levenshteinASCII is Myers' bit-vector edit distance (JACM 1999) in
// Hyyrö's formulation (2001) over two ASCII strings. The shorter string
// is the pattern: bit i of peq[c] says its byte i is c, and pv/mv hold
// the +1/-1 vertical deltas of the current DP column, so one column
// costs a few word operations instead of a pass over the pattern. The
// pattern must fit one 64-bit word; a longer one takes levenshteinDP.
func levenshteinASCII(a, b string) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	m := len(a)
	if m == 0 {
		return len(b)
	}
	if m > 64 {
		return levenshteinDP(a, b)
	}
	// Both strings are ASCII, so masking a byte with 0x7f changes
	// nothing; it only lets the compiler drop the bounds checks.
	var peq [utf8.RuneSelf]uint64
	for i := 0; i < m; i++ {
		peq[a[i]&0x7f] |= 1 << uint(i)
	}
	last := uint64(1) << uint(m-1)
	pv, mv := ^uint64(0), uint64(0)
	dist := m
	for j := 0; j < len(b); j++ {
		eq := peq[b[j]&0x7f]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			dist++
		} else if mh&last != 0 {
			dist--
		}
		// The DP's first row is 0, 1, 2, ...: every column enters the
		// pattern with a +1 horizontal delta.
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return dist
}

// levenshteinDP is the O(len(a)·len(b)) rune DP: the kernel's fallback
// beyond one word or outside ASCII, and the reference the fuzz test
// compares it with.
func levenshteinDP(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost        // substitute
			if d := prev[j] + 1; d < m { // delete
				m = d
			}
			if d := cur[j-1] + 1; d < m { // insert
				m = d
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// NormalizedLevenshtein returns 1 - dist/maxLen, in [0,1], with lengths
// in runes; identical strings (including two empty strings) score 1.
func NormalizedLevenshtein(a, b string) float64 {
	if a == b {
		return 1
	}
	var la, lb, d int
	if isASCII(a) && isASCII(b) {
		la, lb, d = len(a), len(b), levenshteinASCII(a, b)
	} else {
		la, lb, d = utf8.RuneCountInString(a), utf8.RuneCountInString(b), levenshteinDP(a, b)
	}
	max := la
	if lb > max {
		max = lb
	}
	if max == 0 {
		return 1
	}
	return 1 - float64(d)/float64(max)
}

// Jaro returns the Jaro similarity of a and b in [0,1].
func Jaro(a, b string) float64 {
	return jaro([]rune(a), []rune(b))
}

// jaro is Jaro over rune slices, so JaroWinkler converts its strings
// once for both the Jaro score and the prefix scan.
func jaro(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	flags := make([]bool, la+lb)
	matchA, matchB := flags[:la], flags[la:]
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if !matchB[j] && ra[i] == rb[j] {
				matchA[i] = true
				matchB[j] = true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters.
	trans := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
}

// JaroWinkler returns the Jaro-Winkler similarity with the standard
// prefix scale 0.1 and maximum prefix length 4.
func JaroWinkler(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	j := jaro(ra, rb)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// trigrams returns the set of letter 3-grams of s, padded with two
// leading/trailing sentinels, lowercased.
func trigrams(s string) map[string]bool {
	s = strings.ToLower(s)
	padded := "\x01\x01" + s + "\x02\x02"
	out := make(map[string]bool)
	r := []rune(padded)
	for i := 0; i+3 <= len(r); i++ {
		out[string(r[i:i+3])] = true
	}
	return out
}

// TrigramJaccard returns the Jaccard similarity of the trigram sets of a
// and b, in [0,1].
func TrigramJaccard(a, b string) float64 {
	if a == b {
		return 1
	}
	ta, tb := trigrams(a), trigrams(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	inter := 0
	for g := range ta {
		if tb[g] {
			inter++
		}
	}
	union := len(ta) + len(tb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// TokenJaccard returns the Jaccard similarity of the whitespace-token
// sets of a and b (case-insensitive), in [0,1].
func TokenJaccard(a, b string) float64 {
	ta := strings.Fields(strings.ToLower(a))
	tb := strings.Fields(strings.ToLower(b))
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	sa := make(map[string]bool, len(ta))
	for _, t := range ta {
		sa[t] = true
	}
	sb := make(map[string]bool, len(tb))
	for _, t := range tb {
		sb[t] = true
	}
	inter := 0
	for t := range sa {
		if sb[t] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
