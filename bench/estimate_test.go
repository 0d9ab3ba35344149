package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// synthWindows makes n windows of an op that costs ratio yardsticks, with a
// few percent of independent noise on each side.
func synthWindows(n int, ratio float64, rng *rand.Rand) []window {
	ws := make([]window, n)
	for i := range ws {
		yard := 1000 * (1 + 0.02*rng.NormFloat64())
		op := ratio * 1000 * (1 + 0.02*rng.NormFloat64())
		ws[i] = window{OpNs: 5 * op, Ops: 5, YardNs: 7 * yard, Yards: 7}
	}
	return ws
}

func TestWindowRatioEstimates(t *testing.T) {
	ws := synthWindows(120, 3, rand.New(rand.NewSource(1)))
	rs := ratios(ws)
	p50, p90 := median(rs), quantile(rs, 0.9)
	if math.Abs(p50-3) > 0.03 {
		t.Errorf("median ratio %v, want 3 within 1%%", p50)
	}
	if p90 < p50 || p90 > 3.2 {
		t.Errorf("p90 ratio %v, want between the median %v and 3.2", p90, p50)
	}
}

// A neighbour that halves the machine's speed for half the windows slows op
// and yardstick alike: no estimate may move.
func TestCommonModeSlowdownCancels(t *testing.T) {
	ws := synthWindows(120, 3, rand.New(rand.NewSource(2)))
	before := ratios(ws)
	for i := range ws {
		if i%2 == 0 {
			ws[i].OpNs *= 2
			ws[i].YardNs *= 2
		}
	}
	after := ratios(ws)
	for _, p := range []float64{0.5, 0.9} {
		if b, a := quantile(before, p), quantile(after, p); math.Abs(a-b) > 1e-9*b {
			t.Errorf("quantile %v moved from %v to %v under a common-mode slowdown", p, b, a)
		}
	}
	// The raw op time, which is what the ratio replaces, does move.
	if b, a := median(mapWindows(synthWindows(120, 3, rand.New(rand.NewSource(2))), window.opUs)), median(mapWindows(ws, window.opUs)); a < 1.2*b {
		t.Errorf("raw median op time went from %v to %v: the injected slowdown is not visible", b, a)
	}
}

// One window in which the op stalled and the yardstick did not must leave
// the median where it was.
func TestStalledWindowLeavesMedian(t *testing.T) {
	ws := synthWindows(121, 3, rand.New(rand.NewSource(3)))
	before := median(ratios(ws))
	ws[60].OpNs *= 50
	after := median(ratios(ws))
	if math.Abs(after-before) > 0.002*before {
		t.Errorf("median moved from %v to %v after one stalled window", before, after)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}, {0.25, 2}} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
}

// iqrShare must agree with Python's statistics.quantiles(xs, n=4), which is
// what the gate computes: for 1..10 that is [2.75, 5.5, 8.25].
func TestIQRShareMatchesPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want %v", got, want)
	}
	// quantiles([3, 1, 4, 1, 5], n=4) = [1.0, 3.0, 4.5]
	if got, want := iqrShare([]float64{3, 1, 4, 1, 5}), 3.5/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestYardCalls(t *testing.T) {
	for _, c := range []struct {
		op, yard float64
		want     int
	}{{3000, 100, 10}, {100, 100, 1}, {100, 5000, 1}, {900, 100, 3}} {
		if got := yardCalls(c.op, c.yard); got != c.want {
			t.Errorf("yardCalls(%v, %v) = %d, want %d", c.op, c.yard, got, c.want)
		}
	}
}

// timedPass's bookkeeping: k yardstick calls per op, one between call per
// window, and a window for an op longer than the window.
func TestTimedPassBookkeeping(t *testing.T) {
	var ops, yards, betweens int
	ws, err := timedPass(
		func() error { ops++; time.Sleep(2 * time.Millisecond); return nil },
		func() error { yards++; return nil },
		3, 10*time.Millisecond, time.Millisecond,
		func() error { betweens++; return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) == 0 || betweens != len(ws) {
		t.Fatalf("%d windows, %d between calls", len(ws), betweens)
	}
	if yards != 3*ops {
		t.Errorf("%d yardstick calls for %d ops, want 3 each", yards, ops)
	}
	total := 0
	for _, w := range ws {
		if w.Ops != 1 || w.Yards != 3 {
			t.Errorf("window holds %d ops and %d yardstick calls, want 1 and 3", w.Ops, w.Yards)
		}
		total += w.Ops
	}
	if total != ops {
		t.Errorf("windows hold %d ops, %d ran", total, ops)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricAndWorkloadNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			check(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better %q", d.Name, d.Better)
			}
		}
	}
	for _, w := range workloads {
		check(w.name)
	}
}

// BENCHMARK.json is the gate's copy of the tables in this package.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the table has %q: %q", i, file.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the table has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d", file.RunSeconds)
	}
}

// The yardsticks are the fixed point every ratio is measured from: they may
// use the standard library and nothing else.
func TestYardsticksAreStdlibOnly(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "yardstick.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if strings.Contains(imp.Path.Value, ".") || strings.Contains(imp.Path.Value, "repro/") {
			t.Errorf("yardstick.go imports %s", imp.Path.Value)
		}
	}
}
