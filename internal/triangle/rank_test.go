package triangle

import (
	"runtime"
	"testing"
	"time"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
)

// kernelFamilies spans the degree-distribution regimes the kernels must
// agree on: uniform random, heavy-tail Chung-Lu, preferential
// attachment, clustered, triangle-free bipartite, star (one hub, zero
// triangles), complete (every wedge closes), and flat grid.
func kernelFamilies() map[string]func(seed uint64) *graph.Graph {
	return map[string]func(seed uint64) *graph.Graph{
		"gnp":             func(s uint64) *graph.Graph { return gen.GNP(70, 0.2, s) },
		"chung-lu-heavy":  func(s uint64) *graph.Graph { return gen.ChungLu(90, 2.1, 8, s) },
		"barabasi-albert": func(s uint64) *graph.Graph { return gen.BarabasiAlbert(90, 4, s) },
		"ring":            func(s uint64) *graph.Graph { return gen.RingOfCliques(4, 8, s) },
		"bipartite":       func(s uint64) *graph.Graph { return gen.BipartiteGNP(30, 30, 0.2, s) },
		"star":            func(s uint64) *graph.Graph { return gen.Star(40) },
		"complete":        func(s uint64) *graph.Graph { return gen.Complete(18) },
		"grid":            func(s uint64) *graph.Graph { return gen.Grid(7, 9) },
	}
}

// TestRankKernelBitIdenticalAllFamilies pins the kernel contract: for
// every family, seed, and worker count, List's sorted triangle set is
// element-for-element identical to the merge oracle's slice (itself
// checked against BruteForce), and the 2D counting path returns the
// same count.
func TestRankKernelBitIdenticalAllFamilies(t *testing.T) {
	workerCounts := []int{1, 2, 3, 13, runtime.GOMAXPROCS(0)}
	for name, build := range kernelFamilies() {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 6; seed++ {
				view := graph.WholeGraph(build(seed))
				want := BruteForce(view)
				ref := mergeTriangles(view)
				if len(ref) != want.Len() {
					t.Fatalf("seed %d: merge %d triangles, brute %d", seed, len(ref), want.Len())
				}
				for _, workers := range workerCounts {
					set := mustList(t, view, Options{Workers: workers, Kernel: KernelRank})
					got := set.Sorted()
					if len(got) != len(ref) {
						t.Fatalf("seed %d workers %d: rank %d triangles, merge %d",
							seed, workers, len(got), len(ref))
					}
					for i := range got {
						if got[i] != ref[i] {
							t.Fatalf("seed %d workers %d: triangle %d is %v, want %v",
								seed, workers, i, got[i], ref[i])
						}
					}
					if c := mustCount(t, view, Options{Workers: workers, Kernel: Kernel2D}); c != len(ref) {
						t.Fatalf("seed %d workers %d: 2D count %d, want %d", seed, workers, c, len(ref))
					}
					if !set.Equal(want) {
						t.Fatalf("seed %d workers %d: rank set differs from brute", seed, workers)
					}
				}
			}
		})
	}
}

// TestRankKernelRestrictedViews pins the kernels on graph.Sub views with
// member restrictions and edge masks — the shape the decomposition
// pipeline feeds them.
func TestRankKernelRestrictedViews(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		g := gen.BarabasiAlbert(60, 5, seed)
		members := graph.NewVSet(g.N())
		for v := 0; v < g.N(); v++ {
			if v%3 != 0 {
				members.Add(v)
			}
		}
		mask := make([]bool, g.M())
		for e := 0; e < g.M(); e++ {
			mask[e] = e%7 != 0
		}
		view := graph.NewSub(g, members, mask)
		want := BruteForce(view)
		ref := mergeTriangles(view)
		got := mustList(t, view, Options{Workers: 3}).Sorted()
		if len(got) != len(ref) || len(got) != want.Len() {
			t.Fatalf("seed %d: rank %d, merge %d, brute %d", seed, len(got), len(ref), want.Len())
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("seed %d: triangle %d is %v, want %v", seed, i, got[i], ref[i])
			}
		}
		if c := mustCount(t, view, Options{Kernel: Kernel2D}); c != want.Len() {
			t.Fatalf("seed %d: 2D count %d, want %d", seed, c, want.Len())
		}
	}
}

// TestRankKernelGOMAXPROCSSweep varies GOMAXPROCS itself (the workers=0
// default path) and demands identical output, mirroring the parallel
// pipelines' GOMAXPROCS sweeps.
func TestRankKernelGOMAXPROCSSweep(t *testing.T) {
	g := gen.BarabasiAlbert(120, 6, 3)
	view := graph.WholeGraph(g)
	ref := mustList(t, view, Options{Workers: 1}).Sorted()
	ref2d := mustCount(t, view, Options{Workers: 1, Kernel: Kernel2D})
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, 3, 7} {
		runtime.GOMAXPROCS(procs)
		got := mustList(t, view, Options{}).Sorted()
		if len(got) != len(ref) {
			t.Fatalf("GOMAXPROCS %d: %d triangles, want %d", procs, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("GOMAXPROCS %d: triangle %d is %v, want %v", procs, i, got[i], ref[i])
			}
		}
		if c := mustCount(t, view, Options{Kernel: Kernel2D}); c != ref2d {
			t.Fatalf("GOMAXPROCS %d: 2D count %d, want %d", procs, c, ref2d)
		}
	}
}

// TestMergeOracleMatchesListSkewed carries the cross-check the bench
// matrix's enumerate-merge cells used to make: on the four skewed
// scenarios of the short matrix (BA n=512/2048 m0=8, Chung-Lu
// gamma=2.1 n=512 avg 12 / n=2048 avg 16, seed 1) the merge oracle's
// full-set checksum equals List's for every worker count, and both equal
// the checksums those cells pinned.
func TestMergeOracleMatchesListSkewed(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		sum  uint64
	}{
		{"ba-512", gen.BarabasiAlbert(512, 8, 1), 0xbe200947555f6e94},
		{"ba-2048", gen.BarabasiAlbert(2048, 8, 1), 0x1d3488ea18e0f580},
		{"chung-lu-512", gen.ChungLu(512, 2.1, 12, 1), 0xc91ffaee023d819b},
		{"chung-lu-2048", gen.ChungLu(2048, 2.1, 16, 1), 0xbaf2a6dbd02ed17e},
	}
	for _, tc := range cases {
		view := graph.WholeGraph(tc.g)
		oracle := mergeSet(view)
		if got := oracle.Checksum(); got != tc.sum {
			t.Fatalf("%s: merge oracle checksum %#016x, pinned %#016x", tc.name, got, tc.sum)
		}
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			got := mustList(t, view, Options{Workers: workers})
			if got.Len() != oracle.Len() || got.Checksum() != oracle.Checksum() {
				t.Fatalf("%s workers %d: List %d/%#016x, merge oracle %d/%#016x", tc.name, workers,
					got.Len(), got.Checksum(), oracle.Len(), oracle.Checksum())
			}
		}
	}
}

// Test2DGridSweep pins the tiling-independence of the 2D path: any p
// must give the same count, including p=1 (one task) and p larger than
// the balanced tiling would pick.
func Test2DGridSweep(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		g := gen.ChungLu(100, 2.1, 10, seed)
		view := graph.WholeGraph(g)
		want := len(mergeTriangles(view))
		for _, p := range []int{1, 2, 3, 5, 8, 31} {
			if c := gridCount(view, p); c != want {
				t.Fatalf("seed %d p=%d: count %d, want %d", seed, p, c, want)
			}
		}
	}
}

// TestRankKernelMultigraph checks parallel edges and loops collapse
// exactly as in the oracle, through the rank and 2D paths.
func TestRankKernelMultigraph(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1) // parallel
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 2) // loop
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(3, 5)
	view := graph.WholeGraph(b.Graph())
	if got := mustList(t, view, Options{Workers: 2}); got.Len() != 2 {
		t.Fatalf("multigraph: rank found %d triangles, want 2", got.Len())
	}
	if c := mustCount(t, view, Options{Workers: 2, Kernel: Kernel2D}); c != 2 {
		t.Fatalf("multigraph: 2D count %d, want 2", c)
	}
}

func TestKernelParse(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Kernel
	}{{"", KernelAuto}, {"auto", KernelAuto}, {"rank", KernelRank}, {"2d", Kernel2D}} {
		k, err := ParseKernel(c.in)
		if err != nil || k != c.want {
			t.Fatalf("ParseKernel(%q) = %v, %v", c.in, k, err)
		}
	}
	// "merge" names the retired merge kernel, now a test-only oracle.
	for _, bad := range []string{"quantum", "merge"} {
		if _, err := ParseKernel(bad); err == nil {
			t.Fatalf("ParseKernel accepted unknown kernel %q", bad)
		}
	}
	for _, k := range []Kernel{KernelRank, Kernel2D} {
		back, err := ParseKernel(k.String())
		if err != nil || back != k {
			t.Fatalf("round trip %v -> %q -> %v, %v", k, k.String(), back, err)
		}
	}
}

// TestRankSkewedSpeedup is the acceptance check behind
// BenchmarkTriangleSkewed at test scale: on a preferential-attachment
// graph the rank kernel (Count, which emits every triangle like the
// oracle does) must beat the merge oracle single-threaded by 2x.
// Skipped in -short and under the race detector like every timing
// assertion.
func TestRankSkewedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing comparison skipped under the race detector")
	}
	g := gen.BarabasiAlbert(1<<16, 8, 7)
	view := graph.WholeGraph(g)

	start := time.Now()
	ref := mergeTriangles(view)
	merge := time.Since(start)

	start = time.Now()
	got := mustCount(t, view, Options{Workers: 1, Kernel: KernelRank})
	rank := time.Since(start)

	if got != len(ref) {
		t.Fatalf("rank %d triangles, merge %d", got, len(ref))
	}
	speedup := float64(merge) / float64(rank)
	t.Logf("BA n=%d m=%d triangles=%d merge=%v rank=%v speedup=%.1fx",
		g.N(), g.M(), len(ref), merge, rank, speedup)
	if speedup < 2 {
		t.Errorf("speedup %.2fx below the 2x acceptance bar (merge=%v rank=%v)", speedup, merge, rank)
	}
}
