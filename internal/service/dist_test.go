package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/triangle"
)

// fragPutCounter wraps a replica handler and counts fragment PUTs by
// full key path — the direct witness that the coordinator transfers each
// (fingerprint, tiling, rank-range) to each replica at most once per
// job.
type fragPutCounter struct {
	next http.Handler

	mu   sync.Mutex
	puts map[string]int // fragment path -> PUT count
}

func (fc *fragPutCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPut {
		fc.mu.Lock()
		fc.puts[r.URL.Path]++
		fc.mu.Unlock()
	}
	fc.next.ServeHTTP(w, r)
}

func (fc *fragPutCounter) maxPuts() int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	m := 0
	for _, n := range fc.puts {
		if n > m {
			m = n
		}
	}
	return m
}

// local2D is the library's local 2D count of the whole graph — the
// total every distributed count must reproduce.
func local2D(t *testing.T, g *graph.Graph) int {
	t.Helper()
	n, err := triangle.Count(graph.WholeGraph(g), triangle.Options{Kernel: triangle.Kernel2D})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// startReplicas boots n loopback dexpanderd replicas with PUT counters.
func startReplicas(t *testing.T, n int) (bases []string, svcs []*Service, counters []*fragPutCounter) {
	t.Helper()
	for i := 0; i < n; i++ {
		svc := New(Config{Workers: 2})
		fc := &fragPutCounter{next: svc.Handler(), puts: make(map[string]int)}
		srv := httptest.NewServer(fc)
		t.Cleanup(srv.Close)
		t.Cleanup(svc.Close)
		bases = append(bases, srv.URL)
		svcs = append(svcs, svc)
		counters = append(counters, fc)
	}
	return bases, svcs, counters
}

// TestDistCountMatchesLocalKernel is the acceptance property: for every
// generator family, seed, and replica count (0 = local fallback), the
// distributed total and checksum are bit-identical to the local 2D count —
// and no replica receives any fragment key twice.
func TestDistCountMatchesLocalKernel(t *testing.T) {
	families := []struct {
		name  string
		build func(seed uint64) *graph.Graph
	}{
		{"gnp", func(seed uint64) *graph.Graph { return gen.GNP(72, 0.2, seed) }},
		{"ba", func(seed uint64) *graph.Graph { return gen.BarabasiAlbert(120, 5, seed) }},
		{"ring", func(seed uint64) *graph.Graph { return gen.RingOfCliques(5, 6, seed) }},
	}
	ctx := context.Background()
	for _, fam := range families {
		for seed := uint64(1); seed <= 2; seed++ {
			g := fam.build(seed)
			want := local2D(t, g)
			wantSum := checksumString(triangle.HashWords(uint64(want)))
			for _, replicas := range []int{0, 1, 2, 3} {
				bases, svcs, counters := startReplicas(t, replicas)
				coord := New(Config{Workers: 2, Peers: bases, DistWindow: 2})
				snap, err := coord.RegisterGraph("", g)
				if err != nil {
					t.Fatalf("%s seed %d: register: %v", fam.name, seed, err)
				}
				res, err := coord.Query(ctx, "", snap.ID, DistCountParams{})
				if err != nil {
					t.Fatalf("%s seed %d replicas %d: %v", fam.name, seed, replicas, err)
				}
				if res.Triangles != want || res.Checksum != wantSum {
					t.Fatalf("%s seed %d replicas %d: got %d (%s), local kernel %d (%s)",
						fam.name, seed, replicas, res.Triangles, res.Checksum, want, wantSum)
				}
				if replicas > 0 && res.DistTriples == 0 {
					t.Fatalf("%s seed %d replicas %d: schedule reported no triples", fam.name, seed, replicas)
				}
				servedTriples := uint64(0)
				for ri, svc := range svcs {
					st := svc.Stats()
					servedTriples += st.DistTriples
					if m := counters[ri].maxPuts(); m > 1 {
						t.Fatalf("%s seed %d replicas %d: replica %d received a fragment key %d times",
							fam.name, seed, replicas, ri, m)
					}
					if st.FragmentStores != uint64(len(counters[ri].puts)) {
						t.Fatalf("%s seed %d replicas %d: replica %d stored %d fragments for %d distinct PUTs",
							fam.name, seed, replicas, ri, st.FragmentStores, len(counters[ri].puts))
					}
				}
				if replicas > 0 && servedTriples != uint64(res.DistTriples) {
					t.Fatalf("%s seed %d replicas %d: replicas served %d triples, schedule had %d",
						fam.name, seed, replicas, servedTriples, res.DistTriples)
				}
				coord.Close()
			}
		}
	}
}

// TestDistCountGridSweep pins p-independence through the service: every
// forced grid dimension yields the same count and checksum.
func TestDistCountGridSweep(t *testing.T) {
	g := gen.ChungLu(96, 2.2, 8, 3)
	want := local2D(t, g)
	bases, _, _ := startReplicas(t, 2)
	coord := New(Config{Workers: 2, Peers: bases, DistWindow: 3})
	defer coord.Close()
	snap, err := coord.RegisterGraph("", g)
	if err != nil {
		t.Fatal(err)
	}
	for _, grid := range []int{1, 2, 3, 4, 6} {
		res, err := coord.Query(context.Background(), "", snap.ID, DistCountParams{Grid: grid})
		if err != nil {
			t.Fatalf("grid %d: %v", grid, err)
		}
		if res.Triangles != want {
			t.Fatalf("grid %d: counted %d, local kernel %d", grid, res.Triangles, want)
		}
	}
}

// failAfter wraps a replica so its dist/count endpoint serves `healthy`
// requests and then kills the connection of every later one — a replica
// crashing mid-job from the coordinator's point of view.
type failAfter struct {
	next    http.Handler
	healthy int

	mu     sync.Mutex
	served int
}

func (fa *failAfter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/dist/count" {
		fa.mu.Lock()
		fa.served++
		dead := fa.served > fa.healthy
		fa.mu.Unlock()
		if dead {
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("test server does not support hijack")
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
	}
	fa.next.ServeHTTP(w, r)
}

// TestDistCountSurvivesReplicaFailure kills one of three replicas after
// its first served triple: its remaining triples must fail over to the
// survivors (or the coordinator itself) and the total must stay
// bit-identical to the local kernel.
func TestDistCountSurvivesReplicaFailure(t *testing.T) {
	g := gen.BarabasiAlbert(160, 6, 9)
	want := local2D(t, g)

	var bases []string
	for i := 0; i < 3; i++ {
		svc := New(Config{Workers: 2})
		var h http.Handler = svc.Handler()
		if i == 1 {
			h = &failAfter{next: h, healthy: 1}
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		t.Cleanup(svc.Close)
		bases = append(bases, srv.URL)
	}
	coord := New(Config{Workers: 2, Peers: bases, DistWindow: 1})
	defer coord.Close()
	snap, err := coord.RegisterGraph("", g)
	if err != nil {
		t.Fatal(err)
	}
	// Force a grid with plenty of triples so the failing replica is
	// guaranteed work after its first served count.
	res, err := coord.Query(context.Background(), "", snap.ID, DistCountParams{Grid: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != want {
		t.Fatalf("with a failing replica: counted %d, local kernel %d", res.Triangles, want)
	}
	if res.DistRetries == 0 {
		t.Fatal("failing replica produced no retries — the failure never happened")
	}
}

// TestFragmentCacheEviction pins the replica cache's byte bound: storing
// past MaxFragmentBytes evicts the least-recently-used fragment, and a
// subsequent count on the evicted key reports ErrFragmentMissing rather
// than a wrong answer.
func TestFragmentCacheEviction(t *testing.T) {
	g := gen.GNP(64, 0.3, 7)
	view := graph.WholeGraph(g)
	plan := triangle.NewDistPlan(view, 3)
	enc := make([][]byte, plan.Tiling.P)
	for b := range enc {
		enc[b] = plan.Fragment(b).Encode()
	}
	// Budget for roughly one fragment at a time (blocks differ in size;
	// bound by the largest so every single store fits but no pair does).
	maxEnc := 0
	for _, data := range enc {
		if len(data) > maxEnc {
			maxEnc = len(data)
		}
	}
	svc := New(Config{Workers: 1, MaxFragmentBytes: int64(maxEnc + 8)})
	defer svc.Close()
	id := snapshotID(g.Fingerprint())
	put := func(b int) bool {
		lo, hi := plan.Tiling.Block(b)
		stored, err := svc.StoreFragment(id, plan.Tiling.P, lo, hi, enc[b])
		if err != nil {
			t.Fatalf("store block %d: %v", b, err)
		}
		return stored
	}
	if !put(0) {
		t.Fatal("first store reported not stored")
	}
	if put(0) {
		t.Fatal("idempotent re-store reported stored")
	}
	put(1) // must evict block 0
	st := svc.Stats()
	if st.FragmentEvictions == 0 {
		t.Fatalf("stores past the byte bound evicted nothing (resident %d bytes)", st.FragmentBytes)
	}
	if _, err := svc.DistCountTriple(id, plan.Tiling, triangle.BlockTriple{I: 0, J: 0, K: 0}); err == nil {
		t.Fatal("count on the evicted fragment succeeded")
	}
}

// TestDistRejectsHugeRankSpace pins the replica's allocation guard: a
// ~50-byte fragment declaring a 2^31-1 rank space, then a count whose
// tiling declares the same space, would size a 4-byte stamp per rank
// (8 GiB). Both requests must come back as the 400 bad_request envelope
// before anything is sized by the declared rank space.
func TestDistRejectsHugeRankSpace(t *testing.T) {
	_, c := startServer(t, Config{Workers: 1})
	ctx := context.Background()
	const huge = 1<<31 - 1
	frag := &triangle.Fragment{Ranks: huge, Lo: 0, Hi: 0, Off: []int32{0}}
	var apiErr *APIError
	err := c.PutFragment(ctx, "x", 2, 0, 0, frag.Encode())
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != CodeBadRequest {
		t.Fatalf("fragment with rank space %d: %v", huge, err)
	}
	tl := triangle.Tiling{P: 2, Ranks: huge, Cuts: []int32{0, 0, huge}}
	_, err = c.DistCount(ctx, "x", tl, triangle.BlockTriple{})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != CodeBadRequest {
		t.Fatalf("tiling with rank space %d: %v", huge, err)
	}
}
