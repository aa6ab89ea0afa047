package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// compareCmd compares two results files, each holding any number of
// runs. Per workload and end-to-end metric it prints both sides' median
// and quartiles across runs and a verdict against the bound in
// BENCHMARK.json:
//
//   - unresolved: either side's quartile spread, as a share of its
//     median, exceeds the bound, so the runs cannot tell a change that
//     small from noise;
//   - agree: the medians differ by at most the bound;
//   - worse / better: B's median is beyond the bound from A's, in the
//     metric's bad or good direction.
//
// Per-layer metrics carry no bound; they are listed with their medians
// only. The bounds come from BENCHMARK.json in the working directory.
func compareCmd(args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("compare wants two results files, got %d", len(args))
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	m, err := parseManifest(raw)
	if err != nil {
		return err
	}
	a, err := readRecords(args[0])
	if err != nil {
		return err
	}
	b, err := readRecords(args[1])
	if err != nil {
		return err
	}
	lines, summary := compareRecords(m, a, b)
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA runs\tA median [q1, q3]\tB runs\tB median [q1, q3]\tchange\tbound\tverdict")
	for _, l := range lines {
		fmt.Fprintln(tw, l)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, summary)
	return nil
}

// compareRecords builds the comparison table rows and a summary line.
func compareRecords(m *manifest, a, b []record) ([]string, string) {
	values := func(recs []record) map[[2]string][]float64 {
		out := make(map[[2]string][]float64)
		for _, r := range recs {
			k := [2]string{r.Workload, r.Metric}
			out[k] = append(out[k], r.Value)
		}
		return out
	}
	va, vb := values(a), values(b)
	metrics := append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...)
	counts := make(map[string]int)
	var lines []string
	for _, w := range m.Workloads {
		for _, mm := range metrics {
			k := [2]string{w.Name, mm.Name}
			xa, xb := va[k], vb[k]
			if len(xa) == 0 && len(xb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(xa)
			b1, bm, b3 := quartiles(xb)
			change := ratio(bm-am, am)
			verdict, bound := "-", "-"
			if mm.Bound != nil && len(xa) > 0 && len(xb) > 0 {
				bd := *mm.Bound
				bound = fmt.Sprintf("%.0f%%", 100*bd)
				worse := change > 0
				if mm.Better == "higher" {
					worse = change < 0
				}
				switch {
				case ratio(a3-a1, am) > bd || ratio(b3-b1, bm) > bd:
					verdict = "unresolved"
				case math.Abs(change) <= bd:
					verdict = "agree"
				case worse:
					verdict = "worse"
				default:
					verdict = "better"
				}
				counts[verdict]++
			}
			lines = append(lines, fmt.Sprintf("%s\t%s\t%s\t%d\t%.4g [%.4g, %.4g]\t%d\t%.4g [%.4g, %.4g]\t%+.1f%%\t%s\t%s",
				w.Name, mm.Name, mm.Unit, len(xa), am, a1, a3, len(xb), bm, b1, b3, 100*change, bound, verdict))
		}
	}
	return lines, fmt.Sprintf("%d agree, %d worse, %d better, %d unresolved",
		counts["agree"], counts["worse"], counts["better"], counts["unresolved"])
}
