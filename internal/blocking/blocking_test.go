package blocking

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// typoValues generates n base strings plus a typo'd duplicate for every
// other one, mirroring the workload generator.
func typoValues(n int, seed int64) (vals []string, dups int) {
	rng := rand.New(rand.NewSource(seed))
	word := func() string {
		b := make([]byte, 9)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	for i := 0; i < n; i++ {
		base := word() + " " + word()
		vals = append(vals, base)
		if i%2 == 0 {
			// single-character substitution inside the first token
			mut := []byte(base)
			mut[2] = byte('a' + rng.Intn(26))
			if string(mut) != base {
				vals = append(vals, string(mut))
				dups++
			}
		}
	}
	return vals, dups
}

func TestKeyFuncs(t *testing.T) {
	if got := Tokens("Data Eng Conf"); len(got) != 3 || got[0] != "data" {
		t.Errorf("Tokens = %v", got)
	}
	if got := Prefix(4)("Database"); len(got) != 1 || got[0] != "data" {
		t.Errorf("Prefix = %v", got)
	}
	if got := Prefix(10)("abc"); got[0] != "abc" {
		t.Errorf("short Prefix = %v", got)
	}
	grams := QGrams(3)("abcd")
	if len(grams) != 2 || grams[0] != "abc" || grams[1] != "bcd" {
		t.Errorf("QGrams = %v", grams)
	}
	if got := QGrams(5)("ab"); len(got) != 1 || got[0] != "ab" {
		t.Errorf("short QGrams = %v", got)
	}
	u := Union(Prefix(2), Tokens)("ab cd")
	if len(u) != 2 { // "ab" from both schemes is deduplicated
		t.Errorf("Union = %v", u)
	}
}

// TestBlockedSubsetOfBrute: blocking never invents pairs.
func TestBlockedSubsetOfBrute(t *testing.T) {
	vals, _ := typoValues(40, 7)
	brute := BruteTable("b", vals, sim.NormalizedLevenshtein, 0.8)
	blocked, st := BuildTable("b", vals, sim.NormalizedLevenshtein, 0.8, Tokens, nil)
	if blocked.Len() > brute.Len() {
		t.Fatalf("blocked %d pairs > brute %d", blocked.Len(), brute.Len())
	}
	if st.Matches != blocked.Len() {
		t.Errorf("stats.Matches = %d, table has %d", st.Matches, blocked.Len())
	}
	if st.CandidatePairs > st.TotalPairs {
		t.Errorf("more candidates than total pairs: %+v", st)
	}
}

// TestTokenBlockingRecall: a single-token typo leaves the other token
// intact, so token blocking keeps every duplicate pair.
func TestTokenBlockingRecall(t *testing.T) {
	vals, dups := typoValues(60, 11)
	if dups == 0 {
		t.Fatal("no duplicates generated")
	}
	brute := BruteTable("b", vals, sim.NormalizedLevenshtein, 0.8)
	blocked, st := BuildTable("b", vals, sim.NormalizedLevenshtein, 0.8, Tokens, nil)
	if r := Recall(blocked, brute); r < 1 {
		t.Errorf("token blocking lost pairs: recall = %.3f", r)
	}
	if st.ReductionRatio() < 0.9 {
		t.Errorf("reduction ratio only %.3f; blocking not effective", st.ReductionRatio())
	}
}

// TestQGramBlockingRecall: q-gram blocking also achieves full recall on
// single-edit typos (an edit destroys at most q grams out of many).
func TestQGramBlockingRecall(t *testing.T) {
	vals, _ := typoValues(60, 13)
	brute := BruteTable("b", vals, sim.NormalizedLevenshtein, 0.8)
	blocked, _ := BuildTable("b", vals, sim.NormalizedLevenshtein, 0.8, QGrams(4), nil)
	if r := Recall(blocked, brute); r < 1 {
		t.Errorf("4-gram blocking lost pairs: recall = %.3f", r)
	}
}

// TestPrefixBlockingCanMissTailErrors: the documented trade-off — a
// typo inside the prefix escapes prefix blocking.
func TestPrefixBlockingTradeoff(t *testing.T) {
	vals := []string{"abcdefgh xyz", "Xbcdefgh xyz"} // typo at position 0
	brute := BruteTable("b", vals, sim.NormalizedLevenshtein, 0.8)
	if brute.Len() != 1 {
		t.Fatalf("brute should match the pair, got %d", brute.Len())
	}
	blocked, _ := BuildTable("b", vals, sim.NormalizedLevenshtein, 0.8, Prefix(4), nil)
	if blocked.Len() != 0 {
		t.Error("prefix blocking unexpectedly caught a prefix-typo pair")
	}
	// But the union with q-grams recovers it.
	rescued, _ := BuildTable("b", vals, sim.NormalizedLevenshtein, 0.8, Union(Prefix(4), QGrams(4)), nil)
	if rescued.Len() != 1 {
		t.Error("union blocking missed the pair")
	}
}

// TestDuplicateValuesDeduped: repeated values don't inflate stats.
func TestDuplicateValuesDeduped(t *testing.T) {
	vals := []string{"same", "same", "same", "other"}
	_, st := BuildTable("b", vals, sim.NormalizedLevenshtein, 0.8, Prefix(2), nil)
	if st.Values != 2 {
		t.Errorf("Values = %d, want 2", st.Values)
	}
	if st.TotalPairs != 1 {
		t.Errorf("TotalPairs = %d, want 1", st.TotalPairs)
	}
}

// TestBlockedTableUsableAsPredicate: the output is a normal similarity
// predicate (reflexive, symmetric).
func TestBlockedTableUsableAsPredicate(t *testing.T) {
	vals := []string{"hello world", "hallo world"}
	tbl, _ := BuildTable("approx", vals, sim.NormalizedLevenshtein, 0.8, Tokens, nil)
	if !tbl.Holds("hello world", "hallo world") || !tbl.Holds("hallo world", "hello world") {
		t.Error("pair or flip missing")
	}
	if !tbl.Holds("anything", "anything") {
		t.Error("not reflexive")
	}
	reg := sim.NewRegistry(tbl)
	if _, ok := reg.Lookup("approx"); !ok {
		t.Error("table not registrable")
	}
}

// BenchmarkBlockedVsBrute is the ablation: token blocking vs all-pairs
// on growing value sets.
func BenchmarkBlockedVsBrute(b *testing.B) {
	for _, n := range []int{100, 400} {
		vals, _ := typoValues(n, 3)
		b.Run(fmt.Sprintf("blocked_n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BuildTable("b", vals, sim.NormalizedLevenshtein, 0.8, Tokens, nil)
			}
		})
		b.Run(fmt.Sprintf("brute_n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BruteTable("b", vals, sim.NormalizedLevenshtein, 0.8)
			}
		})
	}
}

// TestKeyDedup pins the satellite fix: a value with repeated tokens or
// q-grams emits each block key once, so candidate-pair Stats are not
// inflated by self-blocking.
func TestKeyDedup(t *testing.T) {
	if got, want := Tokens("the the end"), []string{"the", "end"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens(\"the the end\") = %v, want %v", got, want)
	}
	if got := QGrams(2)("aaaa"); !reflect.DeepEqual(got, []string{"aa"}) {
		t.Errorf("QGrams(2)(\"aaaa\") = %v, want [aa]", got)
	}
	u := Union(Tokens, Prefix(3))
	if got, want := u("the theory"), []string{"the", "theory"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Union(Tokens, Prefix(3))(\"the theory\") = %v, want %v", got, want)
	}
}

// TestKeyDedupStats checks the observable consequence: with two values
// sharing a repeated token, the candidate pair is counted once.
func TestKeyDedupStats(t *testing.T) {
	vals := []string{"the the end", "the the ending"}
	_, st := BuildTable("t", vals, sim.NormalizedLevenshtein, 0.8, Tokens, nil)
	if st.CandidatePairs != 1 {
		t.Errorf("CandidatePairs = %d, want 1", st.CandidatePairs)
	}
}
