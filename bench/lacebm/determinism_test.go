package main

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// inputHash hashes everything a read or write run feeds the server for
// a seed: the instances' content fingerprints and each client's first
// operations.
func inputHash(t *testing.T, seed int64) string {
	t.Helper()
	h := sha256.New()
	seeds, err := readPanelSeeds(seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seeds {
		ds, err := readDataset(s)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(h, s, ds.DB.Fingerprint())
		for c := 0; c < clients; c++ {
			seq := newSequence(seed^s, c, 13)
			for i := 0; i < 100; i++ {
				fmt.Fprint(h, seq.next(), " ")
			}
		}
	}
	ds, err := scaleDataset(seed, writeEntities)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(h, ds.DB.Fingerprint())
	sets := writeTupleSets(ds, seed)
	for c := 0; c < clients; c++ {
		for i := 0; i < 100; i++ {
			fmt.Fprintf(h, "%v ", writeBatch(sets, c, i))
		}
	}
	next := seedStream(seed)
	fmt.Fprintln(h, next(), next(), next())
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := inputHash(t, 7), inputHash(t, 7), inputHash(t, 8)
	if a != b {
		t.Fatalf("seed 7 gave two different input sets: %s vs %s", a, b)
	}
	if a == c {
		t.Fatalf("seeds 7 and 8 gave the same inputs %s", a)
	}
}

// TestReadInstancesQualify checks the selection rule over a range of
// seeds: every chosen instance has exactly 8 duplicate references and a
// 192-candidate lattice, and the panels of different seeds differ.
func TestReadInstancesQualify(t *testing.T) {
	seen := make(map[int64]int64)
	for seed := int64(1); seed <= 6; seed++ {
		seeds, err := readPanelSeeds(seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range seeds {
			if prev, ok := seen[s]; ok {
				t.Errorf("generator seed %d chosen for workload seeds %d and %d", s, prev, seed)
			}
			seen[s] = seed
			ds, err := readDataset(s)
			if err != nil {
				t.Fatal(err)
			}
			if d := duplicates(ds); d != readDuplicates {
				t.Errorf("generator seed %d: %d duplicate references", s, d)
			}
			if ok, err := qualifies(ds); err != nil || !ok {
				t.Errorf("generator seed %d does not qualify (%v)", s, err)
			}
		}
	}
}

// TestWriteStatesNeverRepeat walks one client's writes and checks that
// each retracts a present tuple or inserts an absent one and that the
// client's set of retracted tuples never repeats.
func TestWriteStatesNeverRepeat(t *testing.T) {
	ds, err := scaleDataset(3, writeEntities)
	if err != nil {
		t.Fatal(err)
	}
	sets := writeTupleSets(ds, 3)
	retracted := make(map[string]bool)
	key := func() string { return fmt.Sprint(retracted) }
	seen := map[string]bool{key(): true}
	for i := 0; i < 1<<writeTuples-1; i++ {
		b := writeBatch(sets, 0, i)
		switch {
		case len(b.Retract) == 1 && len(b.Insert) == 0:
			f := fmt.Sprint(b.Retract[0])
			if retracted[f] {
				t.Fatalf("write %d retracts %s twice", i, f)
			}
			retracted[f] = true
		case len(b.Insert) == 1 && len(b.Retract) == 0:
			f := fmt.Sprint(b.Insert[0])
			if !retracted[f] {
				t.Fatalf("write %d inserts present tuple %s", i, f)
			}
			delete(retracted, f)
		default:
			t.Fatalf("write %d is not a one-fact batch: %+v", i, b)
		}
		if k := key(); seen[k] {
			t.Fatalf("write %d returns to an earlier state", i)
		} else {
			seen[k] = true
		}
	}
	for c := range sets {
		for _, f := range sets[c] {
			for d := range sets {
				for _, g := range sets[d] {
					if c != d && fmt.Sprint(f) == fmt.Sprint(g) {
						t.Fatalf("clients %d and %d share tuple %v", c, d, f)
					}
				}
			}
		}
	}
}
