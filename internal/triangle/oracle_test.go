package triangle

import (
	"slices"
	"testing"

	"dexpander/internal/graph"
)

// This file holds the test-only oracles the kernel tests compare against:
// the id-ordered sorted-CSR merge kernel (the shared-memory kernel the
// rank kernel replaced, kept as an independent implementation and as the
// baseline of BenchmarkTriangleSkewed), plus small wrappers over the
// production surface.

// csrAdj is a read-only sorted adjacency over the base-graph vertex ids,
// restricted to the view's usable non-loop edges, with parallel edges
// collapsed. nbr[off[v]:end[v]] is v's strictly sorted neighbor list.
type csrAdj struct {
	off []int32
	end []int32
	nbr []int32
}

// buildCSR materializes the view's usable simple adjacency in O(n + m log
// deg): one pass over the edge list plus per-vertex sorts.
func buildCSR(view *graph.Sub) csrAdj {
	g := view.Base()
	n := g.N()
	counts := make([]int32, n)
	for e := 0; e < g.M(); e++ {
		if !view.Usable(e) || g.IsLoop(e) {
			continue
		}
		u, v := g.EdgeEndpoints(e)
		counts[u]++
		counts[v]++
	}
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + counts[v]
	}
	nbr := make([]int32, off[n])
	fill := counts
	for v := range fill {
		fill[v] = 0
	}
	for e := 0; e < g.M(); e++ {
		if !view.Usable(e) || g.IsLoop(e) {
			continue
		}
		u, v := g.EdgeEndpoints(e)
		nbr[off[u]+fill[u]] = int32(v)
		fill[u]++
		nbr[off[v]+fill[v]] = int32(u)
		fill[v]++
	}
	end := make([]int32, n)
	for v := 0; v < n; v++ {
		seg := nbr[off[v] : off[v]+fill[v]]
		slices.Sort(seg)
		end[v] = off[v] + int32(len(slices.Compact(seg)))
	}
	return csrAdj{off: off, end: end, nbr: nbr}
}

// neighbors returns v's deduped sorted neighbor list.
func (a csrAdj) neighbors(v int) []int32 { return a.nbr[a.off[v]:a.end[v]] }

// searchAbove returns the index of the first element of s greater than x.
func searchAbove(s []int32, x int32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// mergeTriangles is the merge oracle: every triangle {a < b < c} of the
// view is discovered exactly once, at its smallest vertex a, by
// intersecting the above-b suffixes of adj(a) and adj(b), so the result
// comes out in lexicographic order. It pays the O(deg^2) hub term the
// rank kernel avoids.
func mergeTriangles(view *graph.Sub) []Triangle {
	adj := buildCSR(view)
	var out []Triangle
	for _, a := range view.Members().Members() {
		na := adj.neighbors(a)
		for bi := searchAbove(na, int32(a)); bi < len(na); bi++ {
			b32 := na[bi]
			nb := adj.neighbors(int(b32))
			i, j := bi+1, searchAbove(nb, b32)
			for i < len(na) && j < len(nb) {
				switch {
				case na[i] < nb[j]:
					i++
				case na[i] > nb[j]:
					j++
				default:
					out = append(out, Triangle{A: a, B: int(b32), C: int(na[i])})
					i++
					j++
				}
			}
		}
	}
	return out
}

// mergeSet collects the merge oracle's triangles into a Set.
func mergeSet(view *graph.Sub) *Set {
	out := NewSet()
	for _, t := range mergeTriangles(view) {
		out.Add(t)
	}
	return out
}

// mustList is List with test-fatal errors.
func mustList(t testing.TB, view *graph.Sub, opt Options) *Set {
	t.Helper()
	set, err := List(view, opt)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// mustCount is Count with test-fatal errors.
func mustCount(t testing.TB, view *graph.Sub, opt Options) int {
	t.Helper()
	n, err := Count(view, opt)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// gridCount sums the per-triple counts of an explicit p x p tiling —
// the 2D path at a grid dimension Count would not pick on its own.
func gridCount(view *graph.Sub, p int) int {
	pl := NewDistPlan(view, p)
	n := 0
	for _, tr := range pl.Tiling.Triples() {
		n += pl.CountTriple(tr)
	}
	return n
}

// verifyAgainstBrute compares a triangle set with the brute-force oracle
// and reports (missing, extra) triangle counts.
func verifyAgainstBrute(view *graph.Sub, got *Set) (missing, extra int) {
	want := BruteForce(view)
	for _, t := range want.Sorted() {
		if !got.Has(t) {
			missing++
		}
	}
	for _, t := range got.Sorted() {
		if !want.Has(t) {
			extra++
		}
	}
	return missing, extra
}
