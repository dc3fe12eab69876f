// Command perfbench is the end-to-end benchmark of dexpanderd. It starts
// internal/service in this process behind loopback listeners, drives one
// of three closed-loop workloads (cold-compute, ingest-count, hot-serve)
// for a fixed time, checks every served answer against a direct library
// call, and prints the metrics as one JSON object on the last line of
// standard output. See README.md for the workloads and metric
// definitions.
//
//	go run . --workload hot-serve --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"dexpander/internal/obs"
	"dexpander/internal/service"
)

// setupRepeats is how many times a run boots and warms its fleet; setup_s
// is the median, and the last fleet serves the timed window.
const setupRepeats = 3

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced run's metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"main_ms", "ms"},
	{"fleet_heap_mb", "MiB"},
}

// perLayer lists the traced run's metrics with their units. Every
// workload reports every one; a layer the workload does not exercise
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"service.overhead_ms", "ms"},
	{"service.http_self_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.register_self_ms", "ms"},
	{"service.count_ms", "ms"},
	{"service.count_dist_ms", "ms"},
	{"service.side_ms", "ms"},
	{"service.hit_ratio", "ratio"},
	{"service.joins", "count"},
	{"service.computations", "count"},
	{"service.busy", "count"},
	{"service.cache_evictions", "count"},
	{"service.dist_pushes", "count"},
	{"service.dist_push_bytes", "bytes"},
	{"service.dist_push_ms", "ms"},
	{"service.dist_remote_count_ms", "ms"},
	{"graph.read_ms", "ms"},
	{"graph.fingerprint_ms", "ms"},
	{"gen.build_ms", "ms"},
	{"core.decompose_ms", "ms"},
	{"core.ldd_ms", "ms"},
	{"core.ldd_calls", "count"},
	{"core.cut_ms", "ms"},
	{"core.cut_calls", "count"},
	{"core.rest_ms", "ms"},
	{"core.cut_share", "ratio"},
	{"core.components", "count"},
	{"core.cut_edges", "count"},
	{"core.phase1_depth", "count"},
	{"core.inter_fraction", "ratio"},
	{"nibble.iterations", "count"},
	{"triangle.set_kernel_ms", "ms"},
	{"triangle.count_kernel_ms", "ms"},
	{"triangle.count_2d_ms", "ms"},
	{"triangle.fragment_encode_ms", "ms"},
	{"triangle.fragment_decode_ms", "ms"},
	{"triangle.fragment_bytes", "bytes"},
	{"triangle.enumerate_ms", "ms"},
	{"triangle.enumerate_decomp_ms", "ms"},
	{"congest.route_ms", "ms"},
	{"congest.rounds", "count"},
	{"congest.messages", "count"},
	{"obs.tracing_overhead", "ratio"},
}

// layers collects per-layer figures by metric name.
type layers map[string]float64

// workload is one traffic mix. Its inputs and request sequence are a
// pure function of the seed it was built from.
type workload interface {
	// digest identifies the generated inputs and request sequence.
	digest() string
	// setup boots a fleet (traced when tr is non-nil), registers the
	// inputs and runs the warm-up.
	setup(tr *obs.Tracer) (*fleet, error)
	// run drives one timed window of length d against a warmed fleet.
	run(f *fleet, d time.Duration) *window
	// verify replays every distinct request of the windows (warm-ups
	// included) through the library, fails on any served answer that
	// differs, and returns the replay's per-layer figures. tr, when
	// non-nil, receives a span per replayed library call.
	verify(tr *obs.Tracer, ws []*window) (layers, error)
	// kinds names the op kinds main_ms and service.side_ms are medians
	// over.
	kinds() (main, side []string)
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "cold-compute":
		return newCold(seed), nil
	case "ingest-count":
		return newIngest(seed), nil
	case "hot-serve":
		return newHot(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold-compute, ingest-count or hot-serve)", name)
}

func main() {
	name := flag.String("workload", "", "cold-compute, ingest-count or hot-serve")
	seed := flag.Uint64("seed", 1, "workload seed: inputs and request sequence are a function of it")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory the traced pass writes its spans to")
	flag.Parse()
	wl, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Printf("workload %s seed %d sequence %s\n", *name, *seed, wl.digest())
	d := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 1 {
		res, err = tracedRun(wl, d, *traceDir, fmt.Sprintf("%s-seed%d", *name, *seed))
	} else {
		res, err = untracedRun(wl, d, setupRepeats)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setupFleet boots and warms a fleet after a GC, returning it with the
// setup's wall time.
func setupFleet(wl workload, tr *obs.Tracer) (*fleet, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	f, err := wl.setup(tr)
	return f, time.Since(start), err
}

// timedWindow runs one window after a GC and returns it with the front
// server's counter delta and the accounting check's verdict.
func timedWindow(wl workload, f *fleet, d time.Duration) (*window, *service.Stats, error) {
	before, err := f.stats()
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	w := wl.run(f, d)
	after, err := f.stats()
	if err != nil {
		return nil, nil, err
	}
	delta := statsDelta(before, after)
	report(w)
	// Every successful op the schedule marks as a miss ran exactly one
	// computation and nothing else did, so no hit was mislabelled by an
	// eviction or a failure.
	if delta.Computations != uint64(w.misses) {
		return w, delta, fmt.Errorf("accounting: %d computations in the window, %d scheduled misses", delta.Computations, w.misses)
	}
	return w, delta, nil
}

// report prints the window's operation accounting.
func report(w *window) {
	kinds := map[string]int{}
	for k, l := range w.lat {
		kinds[k] = len(l)
	}
	failed := w.failures()
	fmt.Printf("window %.2fs: attempted %d, succeeded %d (%s), failed %d (%s)\n",
		w.elapsed.Seconds(), w.attempted, w.attempted-failed, countsString(kinds), failed, countsString(w.failed))
}

func countsString(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s %d", k, m[k])
	}
	return strings.Join(parts, ", ")
}

// untracedRun sets up repeats times, runs the timed window on the last
// fleet, verifies, and reports the end-to-end metrics.
func untracedRun(wl workload, d time.Duration, repeats int) (*result, error) {
	var f *fleet
	var setups []float64
	for i := 0; i < repeats; i++ {
		if f != nil {
			f.close()
		}
		var took time.Duration
		var err error
		if f, took, err = setupFleet(wl, nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, took.Seconds())
	}
	w, _, accErr := timedWindow(wl, f, d)
	// The fleet's heap is the live heap it holds after the window: the
	// live heap with it, minus the live heap once it is closed.
	withFleet := liveHeap()
	f.close()
	fleetHeap := float64(withFleet) - float64(liveHeap())
	if w == nil {
		return nil, accErr
	}
	_, verr := wl.verify(nil, []*window{f.warm, w})
	res := newResult([]*window{w}, accErr, verr)
	mainK, _ := wl.kinds()
	set := func(name string, v float64) {
		res.Metrics[name] = metric{Value: v, Unit: unitOf(endToEnd, name)}
	}
	set("setup_s", median(setups))
	set("main_ms", median(w.latencies(mainK...)))
	set("fleet_heap_mb", fleetHeap/(1<<20))
	return res, nil
}

// newResult starts a result over the windows' ops; any accounting or
// verification error makes it incorrect.
func newResult(ws []*window, errs ...error) *result {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, err := range errs {
		if err != nil {
			fmt.Println("FAIL:", err)
			res.Correct = false
		}
	}
	for _, w := range ws {
		res.Attempted += w.attempted
		res.Failed += w.failures()
	}
	return res
}

func unitOf(list []struct{ name, unit string }, name string) string {
	for _, m := range list {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: unlisted metric " + name)
}

// statsDelta returns after minus before for the counters the per-layer
// report uses.
func statsDelta(before, after *service.Stats) *service.Stats {
	d := &service.Stats{
		Computations:   after.Computations - before.Computations,
		Hits:           after.Hits - before.Hits,
		Joins:          after.Joins - before.Joins,
		Busy:           after.Busy - before.Busy,
		CacheEvictions: after.CacheEvictions - before.CacheEvictions,
		DistPeers:      map[string]*service.PeerDistStats{},
	}
	for base, a := range after.DistPeers {
		p := service.PeerDistStats{Pushes: a.Pushes, PushBytes: a.PushBytes}
		if b := before.DistPeers[base]; b != nil {
			p.Pushes -= b.Pushes
			p.PushBytes -= b.PushBytes
		}
		d.DistPeers[base] = &p
	}
	return d
}
