package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// normalizedDP is NormalizedLevenshtein as it was before the
// bit-parallel kernel: rune lengths from []rune, distance from the DP.
// The kernel must give the same float on every pair, or a threshold
// verdict could flip.
func normalizedDP(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len([]rune(a)), len([]rune(b))
	max := la
	if lb > max {
		max = lb
	}
	if max == 0 {
		return 1
	}
	return 1 - float64(levenshteinDP(a, b))/float64(max)
}

// randomRunes draws n runes from alphabet.
func randomRunes(rng *rand.Rand, alphabet []rune, n int) string {
	out := make([]rune, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(out)
}

// edit applies k random single-rune edits (substitution, deletion or
// insertion) drawn from alphabet, so the result lies at most k edits
// from s.
func edit(rng *rand.Rand, s string, alphabet []rune, k int) string {
	r := []rune(s)
	for ; k > 0; k-- {
		c := alphabet[rng.Intn(len(alphabet))]
		switch op := rng.Intn(3); {
		case op == 0 && len(r) > 0:
			r[rng.Intn(len(r))] = c
		case op == 1 && len(r) > 0:
			i := rng.Intn(len(r))
			r = append(r[:i], r[i+1:]...)
		default:
			i := rng.Intn(len(r) + 1)
			r = append(r[:i], append([]rune{c}, r[i:]...)...)
		}
	}
	return string(r)
}

// clipRunes keeps the first n runes of s.
func clipRunes(s string, n int) string {
	for i := range s {
		if n == 0 {
			return s[:i]
		}
		n--
	}
	return s
}

// asciiOf maps every rune of s to its low seven bits, so a fuzzed
// input of any bytes also reaches the kernel, with its rune count kept.
func asciiOf(s string) string {
	var b strings.Builder
	for _, r := range s {
		b.WriteByte(byte(r) & 0x7f)
	}
	return b.String()
}

// FuzzLevenshtein: the edit distance equals the rune DP's, and the
// normalized score equals the DP-based formula bit for bit, on inputs
// of up to 130 runes (across the kernel's 64-byte word), each tried
// as given and mapped to ASCII. The seed corpus, which plain go test
// runs, is random pairs over small alphabets, half of them a few edits
// apart, with and without non-ASCII runes.
func FuzzLevenshtein(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	alphabets := [][]rune{[]rune("ab"), []rune("abc "), []rune("abé日")}
	for i := 0; i < 400; i++ {
		alpha := alphabets[i%len(alphabets)]
		a := randomRunes(rng, alpha, rng.Intn(131))
		b := randomRunes(rng, alpha, rng.Intn(131))
		if i%2 == 0 {
			b = clipRunes(edit(rng, a, alpha, rng.Intn(8)), 130)
		}
		f.Add(a, b)
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		a, b = clipRunes(a, 130), clipRunes(b, 130)
		for _, p := range [][2]string{{a, b}, {asciiOf(a), asciiOf(b)}} {
			x, y := p[0], p[1]
			if got, want := Levenshtein(x, y), levenshteinDP(x, y); got != want {
				t.Fatalf("Levenshtein(%q, %q) = %d, DP says %d", x, y, got, want)
			}
			if got, want := NormalizedLevenshtein(x, y), normalizedDP(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("NormalizedLevenshtein(%q, %q) = %v, DP formula says %v", x, y, got, want)
			}
		}
	})
}

// TestNormalizedLevenshteinAtThreshold: on strings shaped like the
// workload's titles, emails and conference names (18-30 bytes), each
// 0-6 edits from its pair, the threshold predicates the workloads use
// give the verdicts of the old DP-based predicate, which scored both
// orders. Pairs one edit either side of each threshold must occur, and
// at 0.8 pairs scoring it exactly (5 edits over 25 runes, 6 over 30),
// so float equality is exercised; 0.82 = 41/50 is out of reach of
// lengths up to 30.
func TestNormalizedLevenshteinAtThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	letters := []rune("abcdefghijklmnopqrstuvwxyz")
	word := func(lo, hi int) string { return randomRunes(rng, letters, lo+rng.Intn(hi-lo+1)) }
	shapes := []struct {
		name string
		draw func() string
	}{
		{"title", func() string { return word(6, 9) + " " + word(6, 9) + " " + word(6, 9) }},
		{"email", func() string { return word(5, 10) + "@" + word(5, 10) + ".example" }},
		{"conference", func() string { return word(9, 14) + " " + word(9, 14) }},
	}
	// typo is the workload generator's edit: a substitution by a
	// random letter or a deletion, never at either end.
	typo := func(s string) string {
		i := 1 + rng.Intn(len(s)-2)
		if rng.Intn(2) == 0 {
			return s[:i] + string(letters[rng.Intn(len(letters))]) + s[i+1:]
		}
		return s[:i] + s[i+1:]
	}
	for _, theta := range []float64{0.82, 0.8} {
		p := Threshold("approx", NormalizedLevenshtein, theta)
		var nearRejected, nearHeld, atTheta int
		for _, shape := range shapes {
			for i := 0; i < 1500; i++ {
				a := shape.draw()
				if len(a) < 18 || len(a) > 30 {
					continue
				}
				b := a
				for k := rng.Intn(7); k > 0; k-- {
					if rng.Intn(2) == 0 {
						b = typo(b)
					} else {
						b = edit(rng, b, letters, 1)
					}
				}
				want := normalizedDP(a, b) >= theta || normalizedDP(b, a) >= theta
				if got := p.Holds(a, b); got != want {
					t.Fatalf("%s θ=%v: Holds(%q, %q) = %v, the DP predicate says %v", shape.name, theta, a, b, got, want)
				}
				switch score := normalizedDP(a, b); {
				case score == theta:
					atTheta++
				case math.Abs(score-theta) > 1.0/18:
				case want:
					nearHeld++
				default:
					nearRejected++
				}
			}
		}
		t.Logf("θ=%v: %d pairs held within one edit, %d rejected within one edit, %d scored exactly θ",
			theta, nearHeld, nearRejected, atTheta)
		if nearHeld == 0 || nearRejected == 0 || theta == 0.8 && atTheta == 0 {
			t.Fatalf("θ=%v: the draw no longer straddles the threshold", theta)
		}
	}
}

// TestMetricsSymmetric pins the contract Threshold's single evaluation
// per pair rests on: every metric of the package gives the same float
// for both orders of a pair.
func TestMetricsSymmetric(t *testing.T) {
	metrics := map[string]Metric{
		"Levenshtein":           func(a, b string) float64 { return float64(Levenshtein(a, b)) },
		"NormalizedLevenshtein": NormalizedLevenshtein,
		"Jaro":                  Jaro,
		"JaroWinkler":           JaroWinkler,
		"TrigramJaccard":        TrigramJaccard,
		"TokenJaccard":          TokenJaccard,
	}
	rng := rand.New(rand.NewSource(11))
	alphabet := []rune("abcA é日")
	for i := 0; i < 20000; i++ {
		a := randomRunes(rng, alphabet, rng.Intn(24))
		b := randomRunes(rng, alphabet, rng.Intn(24))
		if i%2 == 0 {
			b = edit(rng, a, alphabet, rng.Intn(4))
		}
		if i%10 == 0 { // across the kernel's 64-byte word
			a = strings.Repeat(a+"x", 1+70/(len(a)+1))
			b = edit(rng, a, alphabet, rng.Intn(4))
		}
		for name, m := range metrics {
			if ab, ba := m(a, b), m(b, a); math.Float64bits(ab) != math.Float64bits(ba) {
				t.Fatalf("%s(%q, %q) = %v but %s(%q, %q) = %v", name, a, b, ab, name, b, a, ba)
			}
		}
	}
}

var benchScore float64

// BenchmarkNormalizedLevenshtein scores pairs shaped like the
// workload's σ3 titles and σ2 emails, each a typo apart, as the
// threshold predicate sees them.
func BenchmarkNormalizedLevenshtein(b *testing.B) {
	pairs := []struct{ name, a, b string }{
		{"title", "qhxvmzta pkbnwrle duoscfgi", "qhxvmzta pkbwrle duoscfgi"},
		{"email", "rkwnqzpomd@vhtlbcsaey.example", "rkwnqzpomd@vhtlbcsjey.example"},
	}
	for _, p := range pairs {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchScore = NormalizedLevenshtein(p.a, p.b)
			}
		})
	}
}
