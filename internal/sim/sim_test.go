package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
		{"wchen@gm.com", "wchen@ox.uk", 5},
		{"über", "uber", 1}, // rune-aware
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	symm := func(a, b string) bool { return Levenshtein(a, b) == Levenshtein(b, a) }
	if err := quick.Check(symm, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	identity := func(a string) bool { return Levenshtein(a, a) == 0 }
	if err := quick.Check(identity, nil); err != nil {
		t.Errorf("identity: %v", err)
	}
	triangle := func(a, b, c string) bool {
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Errorf("triangle inequality: %v", err)
	}
}

func TestNormalizedLevenshtein(t *testing.T) {
	if got := NormalizedLevenshtein("abc", "abc"); got != 1 {
		t.Errorf("identical strings = %v, want 1", got)
	}
	if got := NormalizedLevenshtein("", ""); got != 1 {
		t.Errorf("empty strings = %v, want 1", got)
	}
	if got := NormalizedLevenshtein("abc", "xyz"); got != 0 {
		t.Errorf("disjoint = %v, want 0", got)
	}
	got := NormalizedLevenshtein("abcd", "abcx")
	if got != 0.75 {
		t.Errorf("one sub in four = %v, want 0.75", got)
	}
}

func TestJaroWinkler(t *testing.T) {
	if got := JaroWinkler("martha", "martha"); got != 1 {
		t.Errorf("identical = %v", got)
	}
	got := JaroWinkler("martha", "marhta")
	if got < 0.96 || got > 0.97 {
		t.Errorf("martha/marhta = %v, want ≈0.961", got)
	}
	if got := JaroWinkler("abc", ""); got != 0 {
		t.Errorf("vs empty = %v, want 0", got)
	}
	if got := JaroWinkler("", ""); got != 1 {
		t.Errorf("both empty = %v, want 1", got)
	}
}

func TestMetricRange(t *testing.T) {
	metrics := map[string]Metric{
		"normlev": NormalizedLevenshtein,
		"jaro":    Jaro,
		"jw":      JaroWinkler,
		"tri":     TrigramJaccard,
		"tok":     TokenJaccard,
	}
	for name, m := range metrics {
		f := func(a, b string) bool {
			v := m(a, b)
			return v >= 0 && v <= 1 && m(a, a) == 1
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s out of range or not reflexive: %v", name, err)
		}
	}
}

func TestTrigramJaccard(t *testing.T) {
	if TrigramJaccard("Conf. on Data Eng.", "Data Eng. Conf.") <= 0.2 {
		t.Error("similar conference names score too low")
	}
	if TrigramJaccard("PODS", "Basics of Data Science") > 0.3 {
		t.Error("unrelated names score too high")
	}
}

func TestTokenJaccard(t *testing.T) {
	if got := TokenJaccard("data engineering conf", "conf data engineering"); got != 1 {
		t.Errorf("token permutation = %v, want 1", got)
	}
	if got := TokenJaccard("", ""); got != 1 {
		t.Errorf("empty = %v, want 1", got)
	}
}

func TestThresholdPredicate(t *testing.T) {
	p := Threshold("lev08", NormalizedLevenshtein, 0.8)
	if p.Name() != "lev08" {
		t.Errorf("Name = %q", p.Name())
	}
	if !p.Holds("abcde", "abcde") {
		t.Error("not reflexive")
	}
	if !p.Holds("abcdefghij", "abcdefghix") {
		t.Error("0.9-similar pair rejected")
	}
	if p.Holds("abc", "xyz") {
		t.Error("dissimilar pair accepted")
	}
	f := func(a, b string) bool { return p.Holds(a, b) == p.Holds(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("threshold predicate not symmetric: %v", err)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("approx").Add("e1", "e2").Add("e3", "e2")
	if !tb.Holds("e1", "e2") || !tb.Holds("e2", "e1") {
		t.Error("added pair or its flip missing")
	}
	if !tb.Holds("e7", "e7") {
		t.Error("not reflexive")
	}
	if tb.Holds("e1", "e3") {
		t.Error("table wrongly transitive")
	}
	if tb.Len() != 2 {
		t.Errorf("Len = %d, want 2", tb.Len())
	}
}

func TestRegistry(t *testing.T) {
	r := Default()
	for _, name := range []string{"lev08", "jw90", "tri50", "~"} {
		if _, ok := r.Lookup(name); !ok {
			t.Errorf("default registry missing %q", name)
		}
	}
	if _, err := r.MustLookup("nope"); err == nil {
		t.Error("MustLookup of unknown predicate succeeded")
	}
	tb := NewTable("custom")
	r.Register(tb)
	if p, ok := r.Lookup("custom"); !ok || p != Predicate(tb) {
		t.Error("registered predicate not found")
	}
	names := r.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names not sorted: %v", names)
		}
	}
}

// TestThresholdMemoKeysNamesApart pins that the memo keys a pair by its
// two names, not by a joined string: names may contain NUL (they
// arrive from JSON fact batches, where \u0000 is legal), so
// ("a\x00b", "c") and ("a", "b\x00c") must be memoized apart.
func TestThresholdMemoKeysNamesApart(t *testing.T) {
	only := func(a, b string) float64 {
		if a == "a\x00b" && b == "c" || a == "c" && b == "a\x00b" {
			return 1
		}
		return 0
	}
	p := Threshold("only", only, 0.5)
	if !p.Holds("a\x00b", "c") {
		t.Fatal(`Holds("a\x00b", "c") = false, want true`)
	}
	if p.Holds("a", "b\x00c") {
		t.Error(`Holds("a", "b\x00c") = true after memoizing ("a\x00b", "c"), want false`)
	}
}

// TestThresholdMemoResetsWhenFull: once the memo holds memoCap pairs, a
// miss empties it and stores its own verdict, so a new pair is scored
// once and then answered from the memo rather than scored on every
// call.
func TestThresholdMemoResetsWhenFull(t *testing.T) {
	calls := 0
	counting := func(a, b string) float64 { calls++; return 0 }
	p := Threshold("counting", counting, 0.5).(*thresholdPred)
	// memoCap distinct pairs: every (x, y) with x from xs and y from
	// ys, whose names differ, so no pair repeats.
	const side = 1024
	xs, ys := make([]string, memoCap/side), make([]string, side)
	for i := range xs {
		xs[i] = fmt.Sprintf("x%d", i)
	}
	for i := range ys {
		ys[i] = fmt.Sprintf("y%d", i)
	}
	for i := 0; i < memoCap; i++ {
		p.Holds(xs[i/side], ys[i%side])
	}
	if calls != memoCap || len(p.memo) != memoCap {
		t.Fatalf("after %d distinct pairs: %d metric calls, %d memo entries; want %d of each", memoCap, calls, len(p.memo), memoCap)
	}
	for i := 0; i < 3; i++ {
		p.Holds("new", "pair")
	}
	if got := calls - memoCap; got != 1 {
		t.Errorf("three Holds of a new pair on a full memo made %d metric calls, want 1", got)
	}
	if len(p.memo) != 1 {
		t.Errorf("memo holds %d entries after the reset, want 1", len(p.memo))
	}
}
