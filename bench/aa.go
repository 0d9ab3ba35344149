package main

import (
	"fmt"
	"os"
)

// aaCheck is the benchmark's test of itself: two sets of n runs of the same
// build, interleaved so drift lands on both, each run with its own seed. A
// metric passes when the second set's median is no worse than the first's by
// more than its bound and, for every metric but setup_s, the quartile spread
// of each set stays within the bound: the two conditions the gate applies.
func aaCheck(cfg runConfig, names []string, n int) bool {
	// values[workload][metric][set] = one value per run
	values := map[string]map[string]*[2][]float64{}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, name := range names {
				c := cfg
				c.Workload, c.Seed = name, cfg.Seed+int64(i)
				res, err := runChild(c)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return false
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed\n", name, res.Failed, res.Attempted)
					return false
				}
				if values[name] == nil {
					values[name] = map[string]*[2][]float64{}
				}
				for m, v := range res.Metrics {
					if values[name][m] == nil {
						values[name][m] = &[2][]float64{}
					}
					values[name][m][set] = append(values[name][m][set], v.Value)
				}
				fmt.Fprintf(os.Stderr, "bench: run %d/%d set %c %s done\n", i+1, n, 'A'+set, name)
			}
		}
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	ok := true
	fmt.Printf("| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, name := range names {
		for _, d := range defs {
			v := values[name][d.Name]
			a, b := median(v[0]), median(v[1])
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := iqrShare(v[0]), iqrShare(v[1])
			verdict := "ok"
			if d.Bound > 0 && (worse > d.Bound || (d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound))) {
				verdict, ok = "MISS", false
			}
			fmt.Printf("| %s | %s | %.5g | %.5g | %+.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				name, d.Name, a, b, 100*worse, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	return ok
}
