package main

import (
	"errors"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"dexpander/internal/service"
)

// op is one client operation as issued. Windows keep only what the
// metrics and the verification need, so the benchmark's own memory
// does not grow with the number of operations served.
type op struct {
	kind    string        // request kind, e.g. "decompose" or "hit"
	req     request       // what was asked; equal requests must get equal answers
	lat     time.Duration // client latency
	fail    string        // "" on success, else busy / quota / 5xx / other
	trace   string        // request ID the server filed its spans under
	res     *service.Result
	snap    *service.Snapshot
	compute bool // the schedule makes the server compute this op (a miss)
}

// failClass buckets a client error the way the accounting reports it.
func failClass(err error) string {
	var ae *service.APIError
	if errors.As(err, &ae) {
		switch {
		case ae.Status == 503:
			return "busy"
		case ae.Status == 429:
			return "quota"
		case ae.Status >= 500:
			return "5xx"
		}
	}
	return "other"
}

// served is the part of an answer the verification compares.
type served struct {
	Checksum, Backend, Snapshot string
	Components, Triangles       int
	Rounds, N, M                int
	CutEdges, Messages          int64
	EpsAchieved                 float64
}

func servedOf(o op) served {
	var s served
	if r := o.res; r != nil {
		s = served{Checksum: r.Checksum, Backend: r.Backend, Components: r.Components,
			Triangles: r.Triangles, Rounds: r.Rounds, CutEdges: r.CutEdges,
			Messages: r.Messages, EpsAchieved: r.EpsAchieved}
	}
	if o.snap != nil {
		s.Snapshot, s.N, s.M = o.snap.ID, o.snap.N, o.snap.M
	}
	return s
}

// answerKey is one distinct (request, served answer) pair.
type answerKey struct {
	req request
	ans served
}

// tracedOp is what the span analysis needs of an op of a traced window.
type tracedOp struct {
	trace     string
	compute   bool
	computeNS int64
}

// window is the record of a timed window (or of a warm-up).
type window struct {
	elapsed   time.Duration
	attempted int
	failed    map[string]int         // failed ops by class
	lat       map[string][]float64   // ms, successful ops by kind
	overhead  []float64              // ms, successful queries: latency minus server compute time
	misses    int                    // successful ops the schedule marks as misses
	answers   map[answerKey]struct{} // every distinct answer served
	traced    []tracedOp
}

func newWindow() *window {
	return &window{failed: map[string]int{}, lat: map[string][]float64{}, answers: map[answerKey]struct{}{}}
}

// add records one op. A failed op never adds a latency sample.
func (w *window) add(o op) {
	w.attempted++
	if o.fail != "" {
		w.failed[o.fail]++
		return
	}
	w.lat[o.kind] = append(w.lat[o.kind], ms(o.lat))
	if o.compute {
		w.misses++
	}
	if o.res != nil {
		over := o.lat
		if o.compute {
			over -= time.Duration(o.res.ComputeNS)
		}
		w.overhead = append(w.overhead, ms(over))
	}
	if o.res != nil || o.snap != nil {
		w.answers[answerKey{o.req, servedOf(o)}] = struct{}{}
	}
	if o.trace != "" {
		t := tracedOp{trace: o.trace, compute: o.compute}
		if o.res != nil {
			t.computeNS = o.res.ComputeNS
		}
		w.traced = append(w.traced, t)
	}
}

// addStep records a client step's ops. A step of several ops that all
// succeeded also records its total latency under the kind "session".
func (w *window) addStep(ops []op) {
	var total time.Duration
	ok := true
	for _, o := range ops {
		w.add(o)
		ok = ok && o.fail == ""
		total += o.lat
	}
	if len(ops) > 1 && ok {
		w.lat["session"] = append(w.lat["session"], ms(total))
	}
}

// merge folds v's records into w.
func (w *window) merge(v *window) {
	w.attempted += v.attempted
	for k, n := range v.failed {
		w.failed[k] += n
	}
	for k, l := range v.lat {
		w.lat[k] = append(w.lat[k], l...)
	}
	w.overhead = append(w.overhead, v.overhead...)
	w.misses += v.misses
	for k := range v.answers {
		w.answers[k] = struct{}{}
	}
	w.traced = append(w.traced, v.traced...)
}

// latencies returns the successful ops' latencies of the given kinds, in
// milliseconds.
func (w *window) latencies(kinds ...string) []float64 {
	var out []float64
	for _, k := range kinds {
		out = append(out, w.lat[k]...)
	}
	return out
}

// failures returns the number of failed ops.
func (w *window) failures() int {
	n := 0
	for _, c := range w.failed {
		n += c
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// liveHeap returns the bytes of live heap after two full collections
// (the second empties the sync.Pool victim caches).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runClients drives n closed-loop clients until d has elapsed: client c
// calls next(c, i) for its i-th step (one or more operations, each
// issued after the previous one returned) and starts no step after the
// deadline or once next reports the sequence exhausted.
func runClients(n int, d time.Duration, next func(c, i int) ([]op, bool)) *window {
	per := make([]*window, n)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		per[c] = newWindow()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Since(start) < d; i++ {
				ops, ok := next(c, i)
				per[c].addStep(ops)
				if !ok {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	w := newWindow()
	w.elapsed = time.Since(start)
	for _, v := range per {
		w.merge(v)
	}
	return w
}
