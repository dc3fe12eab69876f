package triangle

import (
	"fmt"
	"slices"

	"dexpander/internal/graph"
	"dexpander/internal/obs"
	"dexpander/internal/par"
)

// This file implements the shared-memory kernel surface: Count and List
// over one rank-permuted forward CSR, served by the skew-proof rank
// kernel or (counting only) the 2D block-triple path in twod.go.
//
// The rank kernel is a degree-descending rank ordering with forward-only
// adjacency (SNIPPETS snippet 2's compute_rank / forward_adjacency_lists
// idiom over our CSR). Every vertex keeps only its higher-rank
// neighbors, strictly sorted by rank, so each wedge is examined exactly
// once from its lowest-rank endpoint and a hub's adjacency is split
// across the vertices ranked below it: forward lists are O(sqrt(m)) long
// on any graph, which kills the O(deg^2) per-hub term an id-ordered
// merge kernel pays on power-law inputs. Intersections go through the
// adaptive strategies in intersect.go, with the per-worker stamp array
// marked once per vertex.
//
// Output contract: the kernel discovers each triangle at its lowest-RANK
// vertex but emits it as the vertex-sorted (A < B < C by original id)
// triple and collects it into a Set, so the result is identical for any
// worker count and equal to BruteForce's.

// Kernel selects a triangle-kernel implementation. The zero value is
// KernelAuto, which currently resolves to the rank kernel — the fastest
// choice on both uniform and skewed degree distributions (see
// BenchmarkTriangleSkewed).
type Kernel int

const (
	// KernelAuto lets the library pick (currently: rank).
	KernelAuto Kernel = iota
	// KernelRank is the degree-rank forward-adjacency kernel.
	KernelRank
	// Kernel2D is the 2D edge-partitioned counting path (counting only;
	// List treats it as KernelRank).
	Kernel2D
)

// String renders the kernel the way the CLI flags spell it.
func (k Kernel) String() string {
	switch k {
	case KernelRank:
		return "rank"
	case Kernel2D:
		return "2d"
	default:
		return "auto"
	}
}

// ParseKernel parses the CLI/service spelling of a kernel name.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "", "auto":
		return KernelAuto, nil
	case "rank":
		return KernelRank, nil
	case "2d":
		return Kernel2D, nil
	}
	return KernelAuto, fmt.Errorf("triangle: unknown kernel %q (want rank, 2d, or auto)", s)
}

// Count counts the view's triangles with opt.Kernel on opt.Workers
// goroutines (<= 0 means GOMAXPROCS); it reads no other Options field
// but Check and Span. Check (nil = never canceled) is probed once per
// rank on the rank kernel and once per block triple on the 2D path; a
// canceled count returns Check's error. Span, when non-nil, gets one
// child per task: a rank shard ("triangle.shard") or a block triple
// ("triangle.triple"). The total is identical for every kernel, worker
// count, and GOMAXPROCS.
func Count(view *graph.Sub, opt Options) (int, error) {
	workers := par.Workers(opt.Workers)
	rc := buildRankCSR(view)
	if opt.Kernel == Kernel2D {
		return newDistPlan(rc, twoDGrid(workers, rc.Ranks)).count(workers, opt.Check, opt.Span)
	}
	shards, err := rankTriangles(rc, workers, opt.Check, opt.Span)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, s := range shards {
		total += len(s)
	}
	return total, nil
}

// List collects the view's triangles into a Set with the rank kernel
// (every Kernel value enumerates through it); Workers, Check, and Span
// act as in Count.
func List(view *graph.Sub, opt Options) (*Set, error) {
	shards, err := rankTriangles(buildRankCSR(view), par.Workers(opt.Workers), opt.Check, opt.Span)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, s := range shards {
		n += len(s)
	}
	out := newSetSized(n)
	for _, shard := range shards {
		for _, t := range shard {
			out.Add(t)
		}
	}
	return out, nil
}

// SetKernel is List without cancellation or tracing.
func SetKernel(view *graph.Sub, workers int, k Kernel) *Set {
	set, _ := List(view, Options{Workers: workers, Kernel: k})
	return set
}

// CountKernel is Count without cancellation or tracing.
func CountKernel(view *graph.Sub, workers int, k Kernel) int {
	n, _ := Count(view, Options{Workers: workers, Kernel: k})
	return n
}

// CountParallel2D is CountKernel on the 2D block-triple path.
func CountParallel2D(view *graph.Sub, workers int) int {
	return CountKernel(view, workers, Kernel2D)
}

// rankCSR is the rank-permuted forward adjacency: order maps rank ->
// base vertex id (usable-degree descending, ties by ascending id, so the
// permutation is deterministic), and the embedded Fragment over [0, R)
// holds, for the vertex with rank r, the strictly-ascending deduped list
// of forward neighbor RANKS at Fwd(r). Non-member vertices carry degree
// 0 and sink to the bottom of the order with empty lists. Because the
// whole CSR has the DXFR1 fragment layout, a block's fragment is a
// re-based slice of it and every counting path shares one loop.
//
// The degree-descending permutation is a performance heuristic, not a
// correctness requirement: outputs are collected into sets or summed,
// so ANY deterministic permutation yields identical results — which is
// why the raw (parallel-edge-counting) usable degree is good enough and
// no deduped CSR has to exist first.
type rankCSR struct {
	order []int32
	Fragment
}

// buildRankCSR derives the rank permutation and forward CSR straight
// from the view's edge list in O(n + m + sort(forward lists)): a
// counting sort over degrees replaces a comparator sort of the vertex
// set, forward edges scatter directly from the edge list (no full
// symmetric CSR is ever built), and only the short forward lists — max
// length O(sqrt(m)) — get sorted, deduped, and compacted in place.
func buildRankCSR(view *graph.Sub) rankCSR {
	g := view.Base()
	n := g.N()
	deg := make([]int32, n)
	maxDeg := int32(0)
	for e := 0; e < g.M(); e++ {
		if !view.Usable(e) || g.IsLoop(e) {
			continue
		}
		u, v := g.EdgeEndpoints(e)
		deg[u]++
		deg[v]++
		if deg[u] > maxDeg {
			maxDeg = deg[u]
		}
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Counting sort into degree-descending rank order; scanning vertex
	// ids ascending makes ties break by id deterministically.
	bucket := make([]int32, maxDeg+1)
	for v := 0; v < n; v++ {
		bucket[deg[v]]++
	}
	var acc int32
	for d := maxDeg; d >= 0; d-- {
		c := bucket[d]
		bucket[d] = acc
		acc += c
	}
	order := make([]int32, n)
	rank := make([]int32, n)
	for v := 0; v < n; v++ {
		r := bucket[deg[v]]
		bucket[deg[v]]++
		order[r] = int32(v)
		rank[v] = r
	}
	// Forward counts and scatter: each usable edge lands once, in its
	// lower-rank endpoint's list.
	counts := make([]int32, n)
	for e := 0; e < g.M(); e++ {
		if !view.Usable(e) || g.IsLoop(e) {
			continue
		}
		u, v := g.EdgeEndpoints(e)
		counts[min(rank[u], rank[v])]++
	}
	off := make([]int32, n+1)
	for r := 0; r < n; r++ {
		off[r+1] = off[r] + counts[r]
	}
	nbr := make([]int32, off[n])
	fill := counts
	for i := range fill {
		fill[i] = 0
	}
	for e := 0; e < g.M(); e++ {
		if !view.Usable(e) || g.IsLoop(e) {
			continue
		}
		u, v := g.EdgeEndpoints(e)
		lo, hi := rank[u], rank[v]
		if hi < lo {
			lo, hi = hi, lo
		}
		nbr[off[lo]+fill[lo]] = hi
		fill[lo]++
	}
	// Sort each list, collapse parallel edges, and compact the lists
	// toward the front so they end up contiguous. w never passes the
	// read position, and off[r+1] is read before off[r] is rewritten.
	w := int32(0)
	start := int32(0)
	for r := 0; r < n; r++ {
		seg := nbr[start:off[r+1]]
		start = off[r+1]
		slices.Sort(seg)
		off[r] = w
		for _, x := range seg {
			if w > off[r] && nbr[w-1] == x {
				continue
			}
			nbr[w] = x
			w++
		}
	}
	off[n] = w
	return rankCSR{
		order:    order,
		Fragment: Fragment{Ranks: n, Lo: 0, Hi: int32(n), Off: off, Nbr: nbr[:w:w]},
	}
}

// shardRanks splits the rank space [0, R) into at most `workers`
// contiguous ranges balanced by the rank kernel's actual work estimate:
// marking v's forward list plus probing every forward neighbor's list.
// Forward lists are O(sqrt(m)) long, so unlike raw degrees this estimate
// cannot be dominated by one hub.
func shardRanks(rc rankCSR, workers int) [][2]int {
	r := rc.Ranks
	if r == 0 {
		return nil
	}
	workers = min(max(workers, 1), r)
	cost := make([]int64, r)
	var total int64
	for v := 0; v < r; v++ {
		fv := rc.Fwd(int32(v))
		c := int64(len(fv)) + 1
		for _, u := range fv {
			c += int64(len(rc.Fwd(u))) + 1
		}
		cost[v] = c
		total += c
	}
	shards := make([][2]int, 0, workers)
	per := total/int64(workers) + 1
	var acc int64
	start := 0
	for v := 0; v < r; v++ {
		acc += cost[v]
		if acc >= per && len(shards) < workers-1 {
			shards = append(shards, [2]int{start, v + 1})
			start = v + 1
			acc = 0
		}
	}
	if start < r {
		shards = append(shards, [2]int{start, r})
	}
	return shards
}

// rankTriangles enumerates every triangle once from its lowest-rank
// vertex, one par task per rank shard. Shard contents are deterministic
// (the rank permutation and shard boundaries depend only on the view and
// worker count). cp (nil = never canceled) is probed once per rank; on
// cancellation every shard stops within one vertex's intersections and
// the first probe error is returned.
func rankTriangles(rc rankCSR, workers int, cp par.Checkpoint, sp *obs.Span) ([][]Triangle, error) {
	shards := shardRanks(rc, workers)
	out := make([][]Triangle, len(shards))
	errs := make([]error, len(shards))
	err := par.ForEach(len(shards), len(shards), cp, sp, "triangle.shard", func(si int) {
		sc := newIntersectScratch(rc.Ranks)
		var buf []int32
		var local []Triangle
		for r := shards[si][0]; r < shards[si][1]; r++ {
			if cp != nil {
				if errs[si] = cp(); errs[si] != nil {
					return
				}
			}
			fv := rc.Fwd(int32(r))
			if len(fv) < 2 {
				continue
			}
			// One markAll serves every pair (r, u): the probes see the
			// full fv, which intersects each fwd(u) exactly like the
			// above-u suffix does (every common rank exceeds u's).
			sc.markAll(fv)
			a := int(rc.order[r])
			for i := 0; i+1 < len(fv); i++ {
				ru := fv[i]
				buf = intersectAdaptive(fv[i+1:], rc.Fwd(ru), sc, true, buf[:0])
				b := int(rc.order[ru])
				for _, rw := range buf {
					local = append(local, MakeTriangle(a, b, int(rc.order[rw])))
				}
			}
		}
		out[si] = local
	})
	if err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
