package main

import (
	"math"
	"sort"
	"time"
)

// A window is one slice of a timed pass (100 ms in a full run): the op and
// the workload's yardstick alternate inside it, so whatever the host does
// to the process during those milliseconds hits both. The ratio of the two
// means is the window's score; medians and percentiles are taken over
// window ratios, never over raw times.
type window struct {
	OpNs   float64 // total time in ops
	YardNs float64 // total time in yardstick calls
	Ops    int
	Yards  int
}

// ratio is mean op time ÷ mean yardstick time.
func (w window) ratio() float64 {
	return (w.OpNs / float64(w.Ops)) / (w.YardNs / float64(w.Yards))
}

func (w window) opUs() float64   { return w.OpNs / float64(w.Ops) / 1e3 }
func (w window) yardUs() float64 { return w.YardNs / float64(w.Yards) / 1e3 }

// timedPass alternates op with k yardstick calls for total, cutting a window
// every win. between runs outside every timed segment, once per window: the
// place for full-payload verification. A window always holds at least one op
// and k yardstick calls, however long they take.
func timedPass(op, yard func() error, k int, total, win time.Duration, between func() error) ([]window, error) {
	var out []window
	end := time.Now().Add(total)
	for time.Now().Before(end) {
		var w window
		for start := time.Now(); ; {
			t0 := time.Now()
			if err := op(); err != nil {
				return out, err
			}
			t1 := time.Now()
			for i := 0; i < k; i++ {
				if err := yard(); err != nil {
					return out, err
				}
			}
			t2 := time.Now()
			w.OpNs += float64(t1.Sub(t0))
			w.YardNs += float64(t2.Sub(t1))
			w.Ops++
			w.Yards += k
			if t2.Sub(start) >= win {
				break
			}
		}
		out = append(out, w)
		if between != nil {
			if err := between(); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// yardCalls picks how many yardstick calls follow each op so the yardstick
// takes about a third of the op's time, and never less than one call.
func yardCalls(opNs, yardNs float64) int {
	k := int(math.Round(opNs / (3 * yardNs)))
	if k < 1 {
		k = 1
	}
	return k
}

// quantile is the R-7 (linear interpolation) quantile of xs. It is
// bench-owned so the estimator cannot move when internal/stats does.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratios(ws []window) []float64 { return mapWindows(ws, window.ratio) }

func mapWindows(ws []window, f func(window) float64) []float64 {
	r := make([]float64, len(ws))
	for i, w := range ws {
		r[i] = f(w)
	}
	return r
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with quartiles as Python's statistics.quantiles(xs, n=4)
// gives them (the "exclusive" method): the spread the gate is judged by.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 { // i-th of 4 cut points, exclusive method
		m := float64(len(s) + 1)
		pos := float64(i) * m / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / q(2)
}
