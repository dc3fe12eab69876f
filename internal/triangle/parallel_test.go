package triangle

import (
	"runtime"
	"testing"
	"time"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
)

// TestParallelMatchesBruteForce50Seeds is the kernel's ground-truth
// contract: on 50 random instances spanning several families, List
// returns exactly BruteForce's set for several worker counts, and Count
// agrees on every kernel.
func TestParallelMatchesBruteForce50Seeds(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		var g *graph.Graph
		switch seed % 4 {
		case 0:
			g = gen.GNP(60, 0.25, seed)
		case 1:
			g = gen.ChungLu(80, 2.5, 8, seed)
		case 2:
			g = gen.RingOfCliques(4, 7, seed)
		default:
			g = gen.PlantedPartition(3, 20, 0.4, 0.05, seed)
		}
		view := graph.WholeGraph(g)
		want := BruteForce(view)
		for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
			got := mustList(t, view, Options{Workers: workers})
			if m, e := verifyAgainstBrute(view, got); m != 0 || e != 0 {
				t.Fatalf("seed %d workers %d: List misses %d and adds %d triangles",
					seed, workers, m, e)
			}
			if got.Checksum() != want.Checksum() {
				t.Fatalf("seed %d workers %d: checksum mismatch on equal sets", seed, workers)
			}
			for _, k := range []Kernel{KernelAuto, KernelRank, Kernel2D} {
				if c := mustCount(t, view, Options{Workers: workers, Kernel: k}); c != want.Len() {
					t.Fatalf("seed %d workers %d: Count(%v) = %d, want %d",
						seed, workers, k, c, want.Len())
				}
			}
		}
	}
}

// TestParallelRespectsView exercises member restriction and edge masks:
// the kernel must see exactly the usable edges, like BruteForce.
func TestParallelRespectsView(t *testing.T) {
	g := gen.GNP(50, 0.3, 9)
	members := graph.NewVSet(g.N())
	for v := 0; v < g.N(); v += 2 {
		members.Add(v)
	}
	mask := make([]bool, g.M())
	for e := 0; e < g.M(); e++ {
		mask[e] = e%5 != 0 // drop every fifth edge
	}
	view := graph.NewSub(g, members, mask)
	want := BruteForce(view)
	got := mustList(t, view, Options{Workers: 4})
	if m, e := verifyAgainstBrute(view, got); m != 0 || e != 0 {
		t.Fatalf("masked view: List misses %d and adds %d of brute's %d triangles", m, e, want.Len())
	}
}

// TestParallelHandlesMultigraph checks parallel edges and self-loops are
// collapsed/skipped exactly as the map-based oracle does.
func TestParallelHandlesMultigraph(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1) // parallel
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 2) // loop
	b.AddEdge(3, 4)
	view := graph.WholeGraph(b.Graph())
	want := BruteForce(view)
	got := mustList(t, view, Options{Workers: 2})
	if !got.Equal(want) || got.Len() != 1 {
		t.Fatalf("multigraph: got %d triangles, want %d (=1)", got.Len(), want.Len())
	}
}

// TestParallelDeterministicOrder pins the output contract: the merge
// oracle emits in strict lexicographic order, and List's sorted set is
// element-for-element that slice for every worker count.
func TestParallelDeterministicOrder(t *testing.T) {
	g := gen.GNP(120, 0.15, 42)
	view := graph.WholeGraph(g)
	ref := mergeTriangles(view)
	for i := 1; i < len(ref); i++ {
		a, b := ref[i-1], ref[i]
		if a.A > b.A || (a.A == b.A && (a.B > b.B || (a.B == b.B && a.C >= b.C))) {
			t.Fatalf("output not strictly sorted at %d: %v then %v", i, a, b)
		}
	}
	for _, workers := range []int{1, 2, 5, 8, 64} {
		got := mustList(t, view, Options{Workers: workers}).Sorted()
		if len(got) != len(ref) {
			t.Fatalf("workers %d: %d triangles, want %d", workers, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers %d: triangle %d is %v, want %v", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestParallelEmptyAndTiny(t *testing.T) {
	empty := graph.NewSub(gen.Complete(4), graph.NewVSet(4), nil)
	for _, k := range []Kernel{KernelRank, Kernel2D} {
		opt := Options{Workers: 4, Kernel: k}
		if n := mustCount(t, graph.WholeGraph(gen.Path(1)), opt); n != 0 {
			t.Fatalf("%v single vertex: %d triangles", k, n)
		}
		if n := mustCount(t, graph.WholeGraph(gen.Path(2)), opt); n != 0 {
			t.Fatalf("%v single edge: %d triangles", k, n)
		}
		if n := mustCount(t, graph.WholeGraph(gen.Complete(3)), opt); n != 1 {
			t.Fatalf("%v K3: %d triangles, want 1", k, n)
		}
		if n := mustCount(t, empty, opt); n != 0 {
			t.Fatalf("%v empty member set: %d triangles", k, n)
		}
	}
}

// TestParallelSpeedup2048 verifies the acceptance bar: on a 2048-node GNP
// graph with GOMAXPROCS >= 4, List is at least 3x faster
// than the sequential map-based kernel while returning the identical set.
// Timing assertions are inherently environment-sensitive, so the check is
// skipped in -short runs and under the race detector.
func TestParallelSpeedup2048(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing comparison skipped under the race detector")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skip("needs GOMAXPROCS >= 4")
	}
	g := gen.GNP(2048, 0.05, 7)
	view := graph.WholeGraph(g)

	start := time.Now()
	want := BruteForce(view)
	seq := time.Since(start)

	start = time.Now()
	got := mustList(t, view, Options{})
	par := time.Since(start)

	if !got.Equal(want) {
		t.Fatalf("parallel set differs: %d vs %d triangles", got.Len(), want.Len())
	}
	speedup := float64(seq) / float64(par)
	t.Logf("n=2048 m=%d triangles=%d seq=%v par=%v speedup=%.1fx",
		g.M(), want.Len(), seq, par, speedup)
	if speedup < 3 {
		t.Errorf("speedup %.2fx below the 3x acceptance bar (seq=%v par=%v)", speedup, seq, par)
	}
}
