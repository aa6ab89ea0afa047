package main

// golden_test.go pins the complete stdout of every CLI task on the
// bibliography testdata (the Figure 1 instance in file form). Searches
// run with -parallel=1: the sequential engine is the reference. The
// existence witness is the first maximal solution, so existence.golden
// repeats the "maximal 1" line of maxsolve.golden.
//
// Regenerate after an intentional output change with:
//
//	go test ./cmd/lace -run TestGolden -update

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden/")

func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"check", cli("check")},
		{"existence", cli("existence", "-parallel", "1")},
		{"solve", cli("solve", "-parallel", "1")},
		{"maxsolve", cli("maxsolve", "-parallel", "1")},
		{"merges", cli("merges", "-parallel", "1")},
		{"certmerge", cli("certmerge", "-pair", "p2,p3", "-parallel", "1")},
		{"possmerge", cli("possmerge", "-pair", "p4,p5", "-parallel", "1")},
		{"certans", cli("certans", "-query", "(x) : Conference(x,n,y), Chair(x,a)", "-parallel", "1")},
		{"possans", cli("possans", "-query", "(x,y) : Paper(x,t,c), Conference(c,y,yr)", "-parallel", "1")},
		{"justify", cli("justify", "-pair", "a4,a5", "-parallel", "1")},
		{"encode", cli("encode")},
		{"greedy", cli("greedy")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := capture(t, tc.args...)
			if err != nil {
				t.Fatalf("%v: %v", tc.args, err)
			}
			path := filepath.Join("testdata", "golden", tc.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if out != string(want) {
				t.Errorf("output diverged from %s\n--- got ---\n%s--- want ---\n%s", path, out, want)
			}
		})
	}
}
