package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload as -quick does, end to end and traced, in
// this process: each must verify its outputs, leave nothing behind, and emit
// every metric BENCHMARK.json lists, finite and with the declared unit.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, spec := range workloads {
		for _, trace := range []bool{false, true} {
			name, defs := spec.name, endToEnd
			if trace {
				name, defs = spec.name+"/trace", perLayer
			}
			t.Run(name, func(t *testing.T) {
				res, err := runWorkload(runConfig{Workload: spec.name, Seed: 7, Seconds: 0.3, Trace: trace, OutDir: out})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Leaks) != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d leaks=%v", res.Correct, res.Attempted, res.Failed, res.Leaks)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s: missing", d.Name)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s: %v", d.Name, m.Value)
					case m.Unit != d.Unit:
						t.Errorf("%s: unit %q, want %q", d.Name, m.Unit, d.Unit)
					case !trace && m.Value <= 0:
						t.Errorf("%s: %v, an end-to-end metric is never 0", d.Name, m.Value)
					}
				}
				// The result file carries its provenance.
				b, err := os.ReadFile(filepath.Join(out, "result-"+res.fileStem()+".json"))
				if err != nil {
					t.Fatal(err)
				}
				var back result
				if err := json.Unmarshal(b, &back); err != nil {
					t.Fatal(err)
				}
				p := back.Provenance
				if p.NProc < 1 || p.GOMAXPROCS < 1 || p.GoVersion == "" || p.Kernel == "" || p.Commit == "" || p.Seed != 7 || p.TimedS <= 0 || p.YardCallsPerOp < 1 {
					t.Errorf("provenance incomplete: %+v", p)
				}
				if trace {
					if _, err := os.Stat(filepath.Join(out, "trace-"+spec.name+".json")); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}
