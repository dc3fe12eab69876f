package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dexpander/internal/obs"
)

const (
	// traceCapacity bounds the span ring of the traced pass.
	traceCapacity = 1 << 18
	// traceSample is how many of the traced window's operations the
	// span analysis reads back, evenly spaced.
	traceSample = 400
)

// tracedRun is the per-layer pass. It runs half the window untraced and
// half traced, each on a freshly set-up fleet replaying the same
// sequence, then replays every distinct request through the library
// with a span per call. Per-layer figures come from the traced half's
// spans and counters, the untraced half's latencies, and the replay.
func tracedRun(wl workload, d time.Duration, dir, name string) (*result, error) {
	half := d / 2
	f, _, err := setupFleet(wl, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	plain, _, accPlain := timedWindow(wl, f, half)
	f.close()
	if plain == nil {
		return nil, accPlain
	}
	plainWarm := f.warm

	tr := obs.NewTracer(traceCapacity, 1)
	if f, _, err = setupFleet(wl, tr); err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	traced, delta, accTraced := timedWindow(wl, f, half)
	f.close()
	if traced == nil {
		return nil, accTraced
	}
	lay, verr := wl.verify(tr, []*window{plainWarm, plain, f.warm, traced})
	if lay == nil {
		lay = layers{}
	}
	res := newResult([]*window{plain, traced}, accPlain, accTraced, verr)

	mainK, sideK := wl.kinds()
	if base := median(plain.latencies(mainK...)); base > 0 {
		lay["obs.tracing_overhead"] = median(traced.latencies(mainK...)) / base
	}
	lay["service.overhead_ms"] = median(plain.overhead)
	lay["service.count_ms"] = median(plain.latencies("count"))
	lay["service.count_dist_ms"] = median(plain.latencies("count-dist"))
	lay["service.side_ms"] = median(plain.latencies(sideK...))
	if reg := plain.latencies("register"); len(reg) > 0 {
		lay["service.register_self_ms"] = median(reg) - lay["graph.read_ms"] - lay["graph.fingerprint_ms"]
	}

	queries := delta.Hits + delta.Joins + delta.Computations
	if queries > 0 {
		lay["service.hit_ratio"] = float64(delta.Hits) / float64(queries)
	}
	lay["service.joins"] = float64(delta.Joins)
	lay["service.computations"] = float64(delta.Computations)
	lay["service.busy"] = float64(delta.Busy)
	lay["service.cache_evictions"] = float64(delta.CacheEvictions)
	for _, p := range delta.DistPeers {
		lay["service.dist_pushes"] += float64(p.Pushes)
		lay["service.dist_push_bytes"] += float64(p.PushBytes)
	}

	traces := spanLayers(lay, tr, traced)
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: lay[m.name], Unit: m.unit}
	}
	if err := writeTrace(dir, name, res, tr, traces); err != nil {
		return nil, err
	}
	return res, nil
}

// spanLayers reads back up to traceSample of the window's operations'
// traces and derives the span-based figures: the self time of the http
// span, the queue wait of computed operations (compute span minus the
// reported compute time) and the dist push and remote count spans. It
// returns the traces it read.
func spanLayers(lay layers, tr *obs.Tracer, w *window) map[string][]obs.Span {
	traces := map[string][]obs.Span{}
	var self, wait, push, remote []float64
	step := max(1, len(w.traced)/traceSample)
	for i := 0; i < len(w.traced); i += step {
		o := w.traced[i]
		spans := tr.Trace(o.trace)
		traces[o.trace] = spans
		for _, sp := range spans {
			switch sp.Name {
			case "http":
				d := sp.DurationNS
				for _, c := range spans {
					if c.Parent == sp.ID {
						d -= c.DurationNS
					}
				}
				self = append(self, float64(d)/1e6)
			case "compute":
				if o.compute {
					wait = append(wait, float64(sp.DurationNS-o.computeNS)/1e6)
				}
			case "dist.push":
				push = append(push, float64(sp.DurationNS)/1e6)
			case "dist.count":
				remote = append(remote, float64(sp.DurationNS)/1e6)
			}
		}
	}
	lay["service.http_self_ms"] = median(self)
	lay["service.queue_wait_ms"] = median(wait)
	lay["service.dist_push_ms"] = median(push)
	lay["service.dist_remote_count_ms"] = median(remote)
	return traces
}

// writeTrace writes the traced pass's per-layer figures, the tracer's
// per-span-name aggregates and the traces the analysis read to
// <dir>/<name>.json.
func writeTrace(dir, name string, res *result, tr *obs.Tracer, traces map[string][]obs.Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{
		"per_layer": res.Metrics,
		"phases":    tr.Phases(),
		"traces":    traces,
	})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}
