package main

import (
	"context"
	"fmt"
	"time"

	"dexpander/internal/gen"
	"dexpander/internal/obs"
	"dexpander/internal/service"
)

// coldWorkload is cold-compute: one client, every request a fresh cache
// key, so each one runs a computation. The time goes to core's sparse
// cut (nibble walks and sweeps); enumerate adds route and congest.
type coldWorkload struct {
	specs []gen.Spec // 0..coldBig-1 serve cs19, auto and enumerate; the rest det
	seq   []request
	warm  []request
	ids   []string // snapshot IDs, by spec
}

const (
	coldBig   = 3    // sbm graphs, n = 96
	coldSmall = 2    // sbm graphs, n = 32, for det
	coldLen   = 4096 // generated requests; a run serves a prefix
	// coldListLimit caps the triangle list an enumerate answer carries,
	// so cached enumerate and decompose answers are of similar size and
	// the fleet's heap does not depend on which of them the cache holds
	// when the window ends.
	coldListLimit = 16
)

// coldPattern is the fixed order of one round: c = cs19 decompose,
// d = det decompose, a = auto decompose, e = enumerate. It keeps every
// named latency's population to inputs of similar cost: det runs on
// graphs a third the size of cs19's, which roughly evens their cost,
// and the fast auto requests are timed as a kind of their own.
const coldPattern = "cecdcecacecdcecce"

func newCold(seed uint64) *coldWorkload {
	w := &coldWorkload{}
	base := mix(seed)
	for i := 0; i < coldBig; i++ {
		w.specs = append(w.specs, gen.Spec{Family: "sbm", Seed: mix(base + uint64(i)),
			Params: map[string]float64{"blocks": 8, "size": 12, "p": 0.5, "pout": 0.02}})
	}
	for i := 0; i < coldSmall; i++ {
		w.specs = append(w.specs, gen.Spec{Family: "sbm", Seed: mix(base + uint64(coldBig+i)),
			Params: map[string]float64{"blocks": 4, "size": 8, "p": 0.5, "pout": 0.02}})
	}
	// Request seeds are unique within a run, so every key is fresh; the
	// warm-up uses seeds the sequence never reaches.
	reqSeed := func(i int) uint64 { return base<<16 | uint64(i+1) }
	next := map[byte]int{}
	mk := func(kind byte, i int) request {
		n := next[kind]
		next[kind]++
		switch kind {
		case 'c':
			return request{n % coldBig, service.DecomposeParams{Eps: 0.4, K: 2, Seed: reqSeed(i), Backend: "cs19"}}
		case 'd':
			return request{coldBig + n%coldSmall, service.DecomposeParams{Eps: 0.4, K: 2, Seed: reqSeed(i), Backend: "det"}}
		case 'a':
			return request{n % coldBig, service.DecomposeParams{Eps: 0.4, K: 2, Seed: reqSeed(i), Backend: "auto"}}
		default:
			return request{n % coldBig, service.EnumerateParams{Seed: reqSeed(i), Limit: coldListLimit}}
		}
	}
	for i := 0; i < coldLen; i++ {
		w.seq = append(w.seq, mk(coldPattern[i%len(coldPattern)], i))
	}
	// The warm-up runs each kind once on each of its graphs.
	for k, kind := range []byte("cccddaaaeee") {
		w.warm = append(w.warm, mk(kind, 0xff00+k))
	}
	return w
}

func (w *coldWorkload) digest() string { return digestOf(w.specs, w.warm, w.seq) }

func (w *coldWorkload) kinds() (main, side []string) {
	return []string{"decompose"}, []string{"enumerate"}
}

// kindOf names a request's kind. The auto backend picks a cheap path on
// these graphs and answers in a few milliseconds, so its requests are a
// kind of their own and stay out of the decompose latencies.
func kindOf(r request) string {
	switch p := r.params.(type) {
	case service.EnumerateParams:
		return "enumerate"
	case service.DecomposeParams:
		if p.Backend == "auto" {
			return "auto"
		}
	}
	return "decompose"
}

func (w *coldWorkload) setup(tr *obs.Tracer) (*fleet, error) {
	// Every key is fresh, so the cache never hits; keeping it small and
	// full holds the fleet's heap independent of how many answers a
	// window produced. Each computation runs on one goroutine, so its
	// latency does not wait on a second vCPU the host may be slow to give.
	f, err := newFleet(service.Config{Workers: 1, AlgoWorkers: 1, MaxResults: 16}, 0, tr)
	if err != nil {
		return nil, err
	}
	cl := f.client("cold")
	w.ids, err = registerSpecs(cl, w.specs)
	if err != nil {
		f.close()
		return nil, err
	}
	for i, r := range w.warm {
		o := f.issueQuery(cl, fmt.Sprintf("cold-warm-%d", i), kindOf(r), w.ids[r.graph], r, true)
		if o.fail != "" {
			f.close()
			return nil, fmt.Errorf("warm-up %s failed: %s", o.kind, o.fail)
		}
		f.warm.add(o)
	}
	return f, nil
}

// registerSpecs registers every spec and returns the snapshot IDs.
func registerSpecs(cl *service.Client, specs []gen.Spec) ([]string, error) {
	ids := make([]string, len(specs))
	for i, s := range specs {
		snap, err := cl.RegisterSpec(context.Background(), s)
		if err != nil {
			return nil, fmt.Errorf("register %s: %w", s.Family, err)
		}
		ids[i] = snap.ID
	}
	return ids, nil
}

func (w *coldWorkload) run(f *fleet, d time.Duration) *window {
	cl := f.client("cold")
	return runClients(1, d, func(_, i int) ([]op, bool) {
		r := w.seq[i]
		o := f.issueQuery(cl, fmt.Sprintf("cold-%d", i), kindOf(r), w.ids[r.graph], r, true)
		return []op{o}, i+1 < len(w.seq)
	})
}

func (w *coldWorkload) verify(tr *obs.Tracer, ws []*window) (layers, error) {
	return verifySpecs(tr, w.specs, ws)
}
