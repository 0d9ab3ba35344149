package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A recorder holds the spans of one traced pass. Spans are recorded here, in
// bench/, around calls into each layer's public functions; the program under
// test is not instrumented. Every span updates its name's aggregate; the
// first keep spans are also kept whole, in memory, for the trace file.
//
// A nil *recorder is the untraced mode: begin and end cost one nil check.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	keep  int
	spans []span
	agg   map[string]*spanAgg
	count map[string]float64
	next  int // last span ID handed out
}

// span is one timed call. Spans of one operation share Op; Parent is the ID
// of the span that caused this one (0 for the operation's own span).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

type spanAgg struct {
	N       int     `json:"n"`
	TotalNs float64 `json:"total_ns"`
	// ChildNs is the time this name's spans had covered by their children, so
	// self time = TotalNs - ChildNs.
	ChildNs float64 `json:"child_ns"`
}

func newRecorder(keep int) *recorder {
	return &recorder{epoch: time.Now(), keep: keep, agg: map[string]*spanAgg{}, count: map[string]float64{}}
}

// opSpan is an operation's root span, open until done is called.
type opSpan struct {
	r     *recorder
	id    int
	name  string
	agg   *spanAgg // the root name's aggregate, charged with child time
	start time.Time
}

// begin opens the root span of one operation. On a nil recorder it returns
// nil, and every method of a nil *opSpan is a no-op.
func (r *recorder) begin(name string) *opSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.next++
	o := &opSpan{r: r, id: r.next, name: name, agg: r.aggOf(name)}
	r.mu.Unlock()
	o.start = time.Now()
	return o
}

// now reads the clock only when tracing.
func (o *opSpan) now() time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

// child records a span [start, now) caused by this operation and returns
// now, so back-to-back calls share one clock read.
func (o *opSpan) child(name string, start time.Time) time.Time {
	if o == nil {
		return time.Time{}
	}
	end := time.Now()
	o.r.add(span{Parent: o.id, Op: o.id, Name: name, StartNs: int64(start.Sub(o.r.epoch)), DurNs: int64(end.Sub(start))}, o.agg)
	return end
}

// interval records a child span from timestamps taken elsewhere (the
// scheduler's own Submitted/Started/Finished). It may overlap its siblings,
// so it is not charged to the operation as child time.
func (o *opSpan) interval(name string, start, end time.Time) {
	if o == nil {
		return
	}
	o.r.add(span{Parent: o.id, Op: o.id, Name: name, StartNs: int64(start.Sub(o.r.epoch)), DurNs: int64(end.Sub(start))}, nil)
}

// add counts an event (a poll, a 429) at the boundary where it happens.
func (o *opSpan) add(name string, n float64) {
	if o == nil {
		return
	}
	o.r.mu.Lock()
	o.r.count[name] += n
	o.r.mu.Unlock()
}

func (o *opSpan) done() {
	if o == nil {
		return
	}
	o.r.add(span{ID: o.id, Op: o.id, Name: o.name, StartNs: int64(o.start.Sub(o.r.epoch)), DurNs: int64(time.Since(o.start))}, nil)
}

// aggOf returns name's aggregate, creating it. The caller holds r.mu.
func (r *recorder) aggOf(name string) *spanAgg {
	a := r.agg[name]
	if a == nil {
		a = &spanAgg{}
		r.agg[name] = a
	}
	return a
}

// add stores s; parent, when set, is charged s's duration as child time.
func (r *recorder) add(s span, parent *spanAgg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ID == 0 {
		r.next++
		s.ID = r.next
	}
	a := r.aggOf(s.Name)
	a.N++
	a.TotalNs += float64(s.DurNs)
	if parent != nil {
		parent.ChildNs += float64(s.DurNs)
	}
	if len(r.spans) < r.keep {
		r.spans = append(r.spans, s)
	}
}

// meanUs is the mean duration of the spans called name, in µs; ok is false
// when none were recorded.
func (r *recorder) meanUs(name string) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.agg[name]
	if a == nil || a.N == 0 {
		return 0, false
	}
	return a.TotalNs / float64(a.N) / 1e3, true
}

func (r *recorder) counted(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count[name]
}

// traceFile is what bench/out/trace-<workload>.json holds: the Chrome
// trace-event form of the kept spans (load it in Perfetto or
// chrome://tracing), the aggregate of every span recorded, and provenance.
type traceFile struct {
	Provenance  provenance          `json:"provenance"`
	Workload    string              `json:"workload"`
	Aggregates  map[string]*spanAgg `json:"aggregates"`
	Counts      map[string]float64  `json:"counts"`
	KeptSpans   int                 `json:"kept_spans"`
	TraceEvents []traceEvent        `json:"traceEvents"`
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

func (r *recorder) write(path, workload string, prov provenance) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.spans, func(i, j int) bool { return r.spans[i].StartNs < r.spans[j].StartNs })
	tf := traceFile{Provenance: prov, Workload: workload, Aggregates: r.agg, Counts: r.count, KeptSpans: len(r.spans)}
	for _, s := range r.spans {
		tid := 1 // root spans on one track, their children on the next
		if s.Parent != 0 {
			tid = 2
		}
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: s.Name, Ph: "X", Ts: float64(s.StartNs) / 1e3, Dur: float64(s.DurNs) / 1e3, Pid: 1, Tid: tid,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
