package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"time"

	"dexpander/internal/gen"
	"dexpander/internal/obs"
	"dexpander/internal/service"
)

// hotWorkload is hot-serve: two clients, each its own tenant, send
// Zipf-skewed reads over 16 spec-registered snapshots. About 95% are
// cache hits on answers warmed during setup; the rest are cheap misses
// (par-cmps decompositions with fresh seeds) that go through admission,
// the queue and cost-scored eviction. Routing, parameter decoding, the
// cache lookup and JSON encoding dominate; compute is negligible.
type hotWorkload struct {
	seed  uint64
	specs []gen.Spec
	warm  []request // every hit target: each snapshot's decompose, count and enumerate
	cdf   []float64 // Zipf(1) over the snapshots, cumulative
	ids   []string
}

const (
	hotSnapshots = 16
	hotClients   = 2
	hotMissRate  = 0.05
	// hotMissSlots is the cache room beyond the warmed answers. A miss
	// costs about as much as the cheapest warmed answer (a count), so
	// cost/age eviction picks an old miss before any warmed answer as
	// long as each warmed answer is hit at least once per
	// hotMissSlots/hotMissRate (about 20000) queries. Zipf(1) over 16
	// snapshots hits the rarest answer about once per 170 queries. The
	// accounting check fails the run if a warmed answer is ever evicted.
	hotMissSlots = 1024
	// hotDigestLen is how many requests per client the digest covers.
	hotDigestLen = 4096
)

func newHot(seed uint64) *hotWorkload {
	w := &hotWorkload{seed: seed}
	base := mix(seed)
	total := 0.0
	for i := 0; i < hotSnapshots; i++ {
		w.specs = append(w.specs, gen.Spec{Family: "gnp", Seed: mix(base + uint64(i)),
			Params: map[string]float64{"n": 40, "p": 0.2}})
		total += 1 / float64(i+1)
		w.cdf = append(w.cdf, total)
		// The enumerate list is capped so every hit's response is of
		// similar size, keeping the hit latency population one mode.
		w.warm = append(w.warm,
			request{i, service.DecomposeParams{Eps: 0.4, K: 2, Seed: 1, Backend: "cs19"}},
			request{i, service.CountParams{Kernel: "auto"}},
			request{i, service.EnumerateParams{Seed: 1, Limit: 32}})
	}
	for i := range w.cdf {
		w.cdf[i] /= total
	}
	return w
}

// stream is one client's request generator: request i of client c is
// the same for every run of the same seed.
type stream struct {
	w      *hotWorkload
	c      int
	rng    *rand.Rand
	misses uint64
}

func (w *hotWorkload) stream(c int) *stream {
	return &stream{w: w, c: c, rng: rand.New(rand.NewPCG(mix(w.seed), uint64(c)))}
}

// next returns the next request and whether it is a scheduled miss.
func (s *stream) next() (request, bool) {
	u := s.rng.Float64()
	g := sort.SearchFloat64s(s.w.cdf, s.rng.Float64())
	g = min(g, hotSnapshots-1)
	if u < hotMissRate {
		s.misses++
		seed := uint64(s.c+1)<<40 | s.misses
		return request{g, service.DecomposeParams{Eps: 0.4, K: 2, Seed: seed, Backend: "par-cmps"}}, true
	}
	return s.w.warm[3*g+s.rng.IntN(3)], false
}

func (w *hotWorkload) digest() string {
	var reqs []request
	for c := 0; c < hotClients; c++ {
		s := w.stream(c)
		for i := 0; i < hotDigestLen; i++ {
			r, _ := s.next()
			reqs = append(reqs, r)
		}
	}
	return digestOf(w.specs, w.warm, reqs)
}

func (w *hotWorkload) kinds() (main, side []string) {
	return []string{"hit"}, []string{"miss"}
}

func tenant(c int) string { return fmt.Sprintf("tenant-%c", 'a'+c) }

func (w *hotWorkload) setup(tr *obs.Tracer) (*fleet, error) {
	f, err := newFleet(service.Config{
		Workers:     runtime.NumCPU(),
		AlgoWorkers: 1,
		MaxResults:  len(w.warm) + hotMissSlots,
	}, 0, tr)
	if err != nil {
		return nil, err
	}
	for c := 0; c < hotClients; c++ {
		if w.ids, err = registerSpecs(f.client(tenant(c)), w.specs); err != nil {
			f.close()
			return nil, err
		}
	}
	// Both clients warm the cache, each taking every other answer.
	warm := make([][]op, hotClients)
	var wg sync.WaitGroup
	for c := 0; c < hotClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := f.client(tenant(c))
			for i := c; i < len(w.warm); i += hotClients {
				r := w.warm[i]
				warm[c] = append(warm[c], f.issueQuery(cl, fmt.Sprintf("hot-warm-%d", i), "warm", w.ids[r.graph], r, true))
			}
		}(c)
	}
	wg.Wait()
	for _, ops := range warm {
		for _, o := range ops {
			if o.fail != "" {
				f.close()
				return nil, fmt.Errorf("warm-up failed: %s", o.fail)
			}
		}
		for _, o := range ops {
			f.warm.add(o)
		}
	}
	return f, nil
}

func (w *hotWorkload) run(f *fleet, d time.Duration) *window {
	streams := make([]*stream, hotClients)
	clients := make([]*service.Client, hotClients)
	for c := range streams {
		streams[c] = w.stream(c)
		clients[c] = f.client(tenant(c))
	}
	return runClients(hotClients, d, func(c, i int) ([]op, bool) {
		r, miss := streams[c].next()
		kind := "hit"
		if miss {
			kind = "miss"
		}
		id := ""
		if f.tracer != nil {
			id = fmt.Sprintf("hot-%d-%d", c, i)
		}
		return []op{f.issueQuery(clients[c], id, kind, w.ids[r.graph], r, miss)}, true
	})
}

func (w *hotWorkload) verify(tr *obs.Tracer, ws []*window) (layers, error) {
	return verifySpecs(tr, w.specs, ws)
}
