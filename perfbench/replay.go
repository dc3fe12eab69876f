package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"dexpander/internal/congest"
	"dexpander/internal/core"
	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/ldd"
	"dexpander/internal/nibble"
	"dexpander/internal/obs"
	"dexpander/internal/service"
	"dexpander/internal/triangle"
)

// Replays are the library half of verification: each distinct request
// is recomputed by a direct library call with Workers = 1, so the
// subroutine timings below add up to the call's wall time. Outputs are
// bit-identical for every worker count, which is what lets a serial
// replay check a parallel service.

// timedSubs wraps decomposition subroutines, timing and counting every
// call and recording a span per call under parent. Replays run serially,
// so calls never overlap.
type timedSubs struct {
	inner  core.Subroutines
	parent *obs.Span

	ldd, cut   time.Duration
	lddN, cutN int
	iters      int // nibble.PartitionResult.Iterations, summed
}

func (t *timedSubs) LDD(view *graph.Sub, beta float64, seed uint64) (*ldd.Result, congest.Stats, error) {
	sp := t.parent.Child("replay.ldd")
	start := time.Now()
	res, st, err := t.inner.LDD(view, beta, seed)
	t.ldd += time.Since(start)
	t.lddN++
	sp.End()
	return res, st, err
}

func (t *timedSubs) SparseCut(comm *graph.Sub, active *graph.VSet, phi float64, seed uint64) (*nibble.PartitionResult, congest.Stats, error) {
	sp := t.parent.Child("replay.cut")
	start := time.Now()
	res, st, err := t.inner.SparseCut(comm, active, phi, seed)
	t.cut += time.Since(start)
	t.cutN++
	if res != nil {
		t.iters += res.Iterations
	}
	sp.End()
	return res, st, err
}

// detSubs is the det backend's subroutine pair rebuilt from the public
// primitives: ball-growing LDD and the deterministic sweep-cut schedule.
type detSubs struct{}

func (detSubs) LDD(view *graph.Sub, beta float64, _ uint64) (*ldd.Result, congest.Stats, error) {
	pr := ldd.NewParams(view.Members().Len(), beta, ldd.Practical)
	return ldd.BallClustering(view, pr), congest.Stats{}, nil
}

func (detSubs) SparseCut(comm *graph.Sub, active *graph.VSet, phi float64, _ uint64) (*nibble.PartitionResult, congest.Stats, error) {
	return nibble.DetSparseCut(comm.Restrict(active), phi, nibble.Practical), congest.Stats{}, nil
}

// answer is the library's result for one request, in the fields the
// service reports, plus the replay's timings.
type answer struct {
	res     served
	inter   float64 // measured inter-cluster fraction (decompose)
	wall    time.Duration
	subs    timedSubs // decompose and enumerate subroutine accounting
	depth   int       // Phase 1 depth (decompose)
	wrapped bool      // the decomposition ran through subs (cs19, det)
}

func checksumString(sum uint64) string { return fmt.Sprintf("fnv64:%016x", sum) }

// replayDecompose recomputes a decompose request through core.Decompose
// (cs19, det) or the backend registry (auto, par-cmps).
func replayDecompose(tr *obs.Tracer, traceID string, view *graph.Sub, p service.DecomposeParams) (*answer, error) {
	sp := tr.Root(traceID, "replay.decompose")
	sp.Attr("backend", p.Backend)
	defer sp.End()
	opt := core.Options{Eps: p.Eps, K: p.K, Preset: nibble.Practical, Seed: p.Seed, Workers: 1}
	a := &answer{}
	a.subs.parent = sp
	backend := p.Backend
	var dec *core.Decomposition
	var err error
	start := time.Now()
	switch p.Backend {
	case "cs19":
		a.subs.inner = core.SeqSubroutines{Preset: nibble.Practical, Workers: 1}
		a.wrapped = true
		dec, err = core.Decompose(view, opt, &a.subs)
	case "det":
		// The det backend pins the seed: its output ignores it.
		opt.Seed = 1
		a.subs.inner = detSubs{}
		a.wrapped = true
		dec, err = core.Decompose(view, opt, &a.subs)
	case "auto":
		bound := p.MaxEpsFraction
		if bound == 0 {
			bound = p.Eps
		}
		dec, _, backend, err = core.DecomposeAuto(view, opt, bound)
	default:
		var b core.Backend
		if b, err = core.LookupBackend(p.Backend); err == nil {
			dec, _, err = b.Decompose(view, opt)
		}
	}
	a.wall = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("replay decompose %+v: %w", p, err)
	}
	words := make([]uint64, 0, len(dec.Labels)+2)
	words = append(words, uint64(dec.Count), uint64(dec.CutEdges))
	for _, l := range dec.Labels {
		words = append(words, uint64(int64(l)))
	}
	a.res = served{
		Checksum:    checksumString(triangle.HashWords(words...)),
		Backend:     backend,
		Components:  dec.Count,
		CutEdges:    dec.CutEdges,
		EpsAchieved: dec.EpsAchieved,
	}
	a.inter = dec.Evaluate(view).InterFraction
	a.depth = dec.Phase1Depth
	if a.inter > p.Eps {
		return nil, fmt.Errorf("replay decompose %+v: inter-cluster fraction %.4f exceeds eps", p, a.inter)
	}
	return a, nil
}

// replayEnumerate recomputes an enumerate request with timed
// decomposition subroutines.
func replayEnumerate(tr *obs.Tracer, traceID string, view *graph.Sub, p service.EnumerateParams) (*answer, error) {
	sp := tr.Root(traceID, "replay.enumerate")
	defer sp.End()
	a := &answer{}
	a.subs = timedSubs{inner: core.SeqSubroutines{Preset: nibble.Practical, Workers: 1}, parent: sp}
	start := time.Now()
	set, st, err := triangle.Enumerate(view, triangle.Options{Seed: p.Seed, Workers: 1, Subs: &a.subs})
	a.wall = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("replay enumerate %+v: %w", p, err)
	}
	a.res = served{
		Checksum:  checksumString(set.Checksum()),
		Triangles: set.Len(),
		Rounds:    st.Rounds,
		Messages:  st.Messages,
	}
	return a, nil
}

// replayCount recomputes a triangle-count request with SetKernel.
func replayCount(tr *obs.Tracer, traceID string, view *graph.Sub, p service.CountParams) (*answer, error) {
	sp := tr.Root(traceID, "replay.count")
	defer sp.End()
	k, err := triangle.ParseKernel(p.Kernel)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	set := triangle.SetKernel(view, 1, k)
	return &answer{
		wall: time.Since(start),
		res:  served{Checksum: checksumString(set.Checksum()), Triangles: set.Len()},
	}, nil
}

// replay dispatches on the request's params type.
func replay(tr *obs.Tracer, traceID string, view *graph.Sub, p service.Params) (*answer, error) {
	switch p := p.(type) {
	case service.DecomposeParams:
		return replayDecompose(tr, traceID, view, p)
	case service.EnumerateParams:
		return replayEnumerate(tr, traceID, view, p)
	case service.CountParams:
		return replayCount(tr, traceID, view, p)
	}
	return nil, fmt.Errorf("no replay for %T", p)
}

// replayAll recomputes every distinct request of the windows on
// runtime.NumCPU goroutines and checks every distinct answer served for
// it against the library's.
func replayAll(tr *obs.Tracer, views []*graph.Sub, ws []*window) (map[request]*answer, error) {
	var reqs []request
	byReq := map[request]*answer{}
	for _, w := range ws {
		for k := range w.answers {
			if _, ok := byReq[k.req]; !ok {
				byReq[k.req] = nil
				reqs = append(reqs, k.req)
			}
		}
	}
	answers := make([]*answer, len(reqs))
	errs := make([]error, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				answers[i], errs[i] = replay(tr, fmt.Sprintf("replay-%d", i), views[reqs[i].graph], reqs[i].params)
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, r := range reqs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		byReq[r] = answers[i]
	}
	for _, w := range ws {
		for k := range w.answers {
			if want := byReq[k.req].res; k.ans != want {
				return nil, fmt.Errorf("graph %d %+v: served %+v, library %+v", k.req.graph, k.req.params, k.ans, want)
			}
		}
	}
	return byReq, nil
}

// coreLayers fills the core, nibble, triangle-enumerate and congest
// figures from the replayed answers.
func coreLayers(lay layers, answers map[request]*answer) {
	var wall, lddT, lddN, cutT, cutN, rest, comps, cuts, depth, iters, inter []float64
	var enumWall, enumDec, route, rounds, msgs []float64
	var cutSum, wallSum time.Duration
	for r, a := range answers {
		switch r.params.(type) {
		case service.DecomposeParams:
			inter = append(inter, a.inter)
			if !a.wrapped {
				continue
			}
			wall = append(wall, ms(a.wall))
			lddT = append(lddT, ms(a.subs.ldd))
			lddN = append(lddN, float64(a.subs.lddN))
			cutT = append(cutT, ms(a.subs.cut))
			cutN = append(cutN, float64(a.subs.cutN))
			rest = append(rest, ms(a.wall-a.subs.ldd-a.subs.cut))
			comps = append(comps, float64(a.res.Components))
			cuts = append(cuts, float64(a.res.CutEdges))
			depth = append(depth, float64(a.depth))
			iters = append(iters, float64(a.subs.iters))
			cutSum += a.subs.cut
			wallSum += a.wall
		case service.EnumerateParams:
			dec := a.subs.ldd + a.subs.cut
			enumWall = append(enumWall, ms(a.wall))
			enumDec = append(enumDec, ms(dec))
			route = append(route, ms(a.wall-dec))
			rounds = append(rounds, float64(a.res.Rounds))
			msgs = append(msgs, float64(a.res.Messages))
		}
	}
	lay["core.decompose_ms"] = median(wall)
	lay["core.ldd_ms"] = median(lddT)
	lay["core.ldd_calls"] = median(lddN)
	lay["core.cut_ms"] = median(cutT)
	lay["core.cut_calls"] = median(cutN)
	lay["core.rest_ms"] = median(rest)
	if wallSum > 0 {
		lay["core.cut_share"] = float64(cutSum) / float64(wallSum)
	}
	lay["core.components"] = median(comps)
	lay["core.cut_edges"] = median(cuts)
	lay["core.phase1_depth"] = median(depth)
	lay["core.inter_fraction"] = mean(inter)
	lay["nibble.iterations"] = median(iters)
	lay["triangle.enumerate_ms"] = median(enumWall)
	lay["triangle.enumerate_decomp_ms"] = median(enumDec)
	lay["congest.route_ms"] = median(route)
	lay["congest.rounds"] = median(rounds)
	lay["congest.messages"] = median(msgs)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// verifySpecs builds the whole-graph view of every spec, timing the
// builds as gen.build_ms, then replays the windows against them and
// fills the core and enumerate figures.
func verifySpecs(tr *obs.Tracer, specs []gen.Spec, ws []*window) (layers, error) {
	lay := layers{}
	views := make([]*graph.Sub, len(specs))
	start := time.Now()
	for i, s := range specs {
		g, err := s.Build()
		if err != nil {
			return nil, err
		}
		views[i] = graph.WholeGraph(g)
	}
	lay["gen.build_ms"] = ms(time.Since(start))
	answers, err := replayAll(tr, views, ws)
	if err != nil {
		return nil, err
	}
	coreLayers(lay, answers)
	return lay, nil
}

// mix is the splitmix64 finalizer; workloads derive every input seed
// from the workload seed through it.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// digestOf renders an FNV-1a digest of the printed values.
func digestOf(parts ...any) string {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%+v\n", p)
	}
	return checksumString(h.Sum64())
}
