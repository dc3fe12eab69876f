package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/obs"
	"dexpander/internal/service"
	"dexpander/internal/triangle"
)

// ingestWorkload is ingest-count: one client runs sessions against a
// coordinator with a 3-replica loopback fleet. A session uploads an edge
// list, counts its triangles locally and across the fleet, and releases
// the snapshot. The work is parsing, fingerprinting, the registry, the
// triangle kernels and the dist layer; core is idle.
type ingestWorkload struct {
	specs   []gen.Spec // the upload pool, generated before setup
	uploads [][]byte   // edge-list bytes of each spec
}

const (
	ingestPool     = 8 // Barabási–Albert graphs, n = 2^16, m0 = 4
	ingestReplicas = 3
	// ingestWindow is the coordinator's default per-peer window; with it
	// the replay derives the same tiling the coordinator uses.
	ingestWindow = 4
)

var (
	countReq = service.CountParams{Kernel: "auto"}
	distReq  = service.DistCountParams{}
)

func newIngest(seed uint64) *ingestWorkload {
	w := &ingestWorkload{}
	base := mix(seed)
	for i := 0; i < ingestPool; i++ {
		s := gen.Spec{Family: "barabasi-albert", Seed: mix(base + uint64(i)),
			Params: map[string]float64{"n": 1 << 16, "m0": 4}}
		g, err := s.Build()
		if err != nil {
			panic(err) // fixed, valid spec
		}
		var buf bytes.Buffer
		if err := graph.WriteEdgeList(&buf, g); err != nil {
			panic(err) // writes to memory do not fail
		}
		w.specs = append(w.specs, s)
		w.uploads = append(w.uploads, buf.Bytes())
	}
	return w
}

func (w *ingestWorkload) digest() string {
	sums := make([]string, len(w.uploads))
	for i, b := range w.uploads {
		sums[i] = digestOf(string(b))
	}
	return digestOf(w.specs, sums, "register,count,count-dist,release")
}

func (w *ingestWorkload) kinds() (main, side []string) {
	return []string{"session"}, []string{"register"}
}

func (w *ingestWorkload) setup(tr *obs.Tracer) (*fleet, error) {
	f, err := newFleet(service.Config{Workers: runtime.NumCPU(), AlgoWorkers: runtime.NumCPU()}, ingestReplicas, tr)
	if err != nil {
		return nil, err
	}
	// One session per pool graph: every kind of operation runs once and
	// the replicas' fragment caches hold the pool, as they do in the
	// window.
	cl := f.client("ingest")
	for i := range w.uploads {
		ops := w.session(f, cl, fmt.Sprintf("ingest-warm-%d", i), i)
		for _, o := range ops {
			if o.fail != "" {
				f.close()
				return nil, fmt.Errorf("warm-up %s failed: %s", o.kind, o.fail)
			}
		}
		for _, o := range ops {
			f.warm.add(o)
		}
	}
	return f, nil
}

// session uploads pool graph g, counts it both ways and releases it. A
// failed upload ends the session.
func (w *ingestWorkload) session(f *fleet, cl *service.Client, id string, g int) []op {
	reg := f.issue(cl, id+"-register", op{kind: "register", req: request{graph: g}},
		func(ctx context.Context) (*service.Result, *service.Snapshot, error) {
			snap, err := cl.RegisterEdgeList(ctx, bytes.NewReader(w.uploads[g]))
			return nil, snap, err
		})
	if reg.fail != "" {
		return []op{reg}
	}
	snap := reg.snap.ID
	count := f.issueQuery(cl, id+"-count", "count", snap, request{g, countReq}, true)
	dist := f.issueQuery(cl, id+"-count-dist", "count-dist", snap, request{g, distReq}, true)
	rel := f.issue(cl, id+"-release", op{kind: "release", req: request{graph: g}},
		func(ctx context.Context) (*service.Result, *service.Snapshot, error) {
			return nil, nil, cl.Release(ctx, snap)
		})
	return []op{reg, count, dist, rel}
}

func (w *ingestWorkload) run(f *fleet, d time.Duration) *window {
	cl := f.client("ingest")
	return runClients(1, d, func(_, i int) ([]op, bool) {
		return w.session(f, cl, fmt.Sprintf("ingest-%d", i), i%len(w.uploads)), true
	})
}

// verify checks each pool graph's served answers against the library —
// snapshot identity, the rank kernel's set, and one triangle total
// shared by count, count-dist, the 2D kernel and the fragment path —
// and times each library layer on it.
func (w *ingestWorkload) verify(tr *obs.Tracer, ws []*window) (layers, error) {
	byGraph := map[int][]answerKey{}
	for _, win := range ws {
		for k := range win.answers {
			byGraph[k.req.graph] = append(byGraph[k.req.graph], k)
		}
	}
	var read, fp, set, count, twoD, enc, dec, size []float64
	for g := range w.uploads {
		if len(byGraph[g]) == 0 {
			continue
		}
		sp := tr.Root(fmt.Sprintf("replay-%d", g), "replay.ingest")
		lib, err := replayIngest(sp, w.uploads[g])
		sp.End()
		if err != nil {
			return nil, err
		}
		for _, k := range byGraph[g] {
			if diff := lib.check(k); diff != "" {
				return nil, fmt.Errorf("pool graph %d, %T: %s", g, k.req.params, diff)
			}
		}
		read = append(read, ms(lib.read))
		fp = append(fp, ms(lib.fingerprint))
		set = append(set, ms(lib.set))
		count = append(count, ms(lib.count))
		twoD = append(twoD, ms(lib.twoD))
		enc = append(enc, ms(lib.encode))
		dec = append(dec, ms(lib.decode))
		size = append(size, float64(lib.bytes))
	}
	return layers{
		"graph.read_ms":               median(read),
		"graph.fingerprint_ms":        median(fp),
		"triangle.set_kernel_ms":      median(set),
		"triangle.count_kernel_ms":    median(count),
		"triangle.count_2d_ms":        median(twoD),
		"triangle.fragment_encode_ms": median(enc),
		"triangle.fragment_decode_ms": median(dec),
		"triangle.fragment_bytes":     median(size),
	}, nil
}

// ingestAnswer is the library's view of one uploaded graph.
type ingestAnswer struct {
	id, setSum        string
	n, m, triangles   int
	read, fingerprint time.Duration
	set, count, twoD  time.Duration
	encode, decode    time.Duration
	bytes             int
}

// replayIngest recomputes everything a session serves for one upload,
// with the same single worker throughout, recording a span per call.
func replayIngest(sp *obs.Span, upload []byte) (*ingestAnswer, error) {
	a := &ingestAnswer{}
	step := func(name string, d *time.Duration, f func() error) error {
		csp := sp.Child(name)
		start := time.Now()
		err := f()
		*d = time.Since(start)
		csp.End()
		return err
	}
	var g *graph.Graph
	if err := step("replay.read", &a.read, func() (err error) {
		g, err = graph.ReadEdgeListLimited(bytes.NewReader(upload), graph.ReadLimits{})
		return err
	}); err != nil {
		return nil, err
	}
	step("replay.fingerprint", &a.fingerprint, func() error {
		a.id = fmt.Sprintf("fnv64:%016x", g.Fingerprint())
		return nil
	})
	a.n, a.m = g.N(), g.M()
	view := graph.WholeGraph(g)
	step("replay.set_kernel", &a.set, func() error {
		set := triangle.SetKernel(view, 1, triangle.KernelRank)
		a.setSum, a.triangles = checksumString(set.Checksum()), set.Len()
		return nil
	})
	var total, twoD int
	step("replay.count_kernel", &a.count, func() error {
		total = triangle.CountKernel(view, 1, triangle.KernelRank)
		return nil
	})
	step("replay.count_2d", &a.twoD, func() error {
		twoD = triangle.CountParallel2D(view, 1)
		return nil
	})
	// The fragment path: the tiling the coordinator derives for its
	// fleet, every block encoded and decoded, every triple counted from
	// the decoded fragments.
	plan := triangle.NewDistPlan(view, triangle.AutoGrid(ingestReplicas*ingestWindow, len(view.MemberList())))
	blocks := make([][]byte, plan.Tiling.P)
	step("replay.fragment_encode", &a.encode, func() error {
		for b := range blocks {
			blocks[b] = plan.Fragment(b).Encode()
			a.bytes += len(blocks[b])
		}
		return nil
	})
	frags := make([]*triangle.Fragment, len(blocks))
	if err := step("replay.fragment_decode", &a.decode, func() (err error) {
		for b, data := range blocks {
			if frags[b], err = triangle.DecodeFragment(data); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	fragTotal := 0
	for _, t := range plan.Tiling.Triples() {
		bi, bj := t.Blocks()
		n, err := triangle.CountFragments(plan.Tiling, t, frags[bi], frags[bj])
		if err != nil {
			return nil, err
		}
		fragTotal += n
	}
	if total != a.triangles || twoD != a.triangles || fragTotal != a.triangles {
		return nil, fmt.Errorf("library triangle totals disagree: set %d, count %d, 2d %d, fragments %d",
			a.triangles, total, twoD, fragTotal)
	}
	return a, nil
}

// check compares one served answer with the library's.
func (a *ingestAnswer) check(k answerKey) string {
	var want served
	switch k.req.params.(type) {
	case nil:
		want = served{Snapshot: a.id, N: a.n, M: a.m}
	case service.CountParams:
		want = served{Checksum: a.setSum, Triangles: a.triangles}
	case service.DistCountParams:
		want = served{Checksum: checksumString(triangle.HashWords(uint64(a.triangles))), Triangles: a.triangles}
	default:
		return fmt.Sprintf("unexpected request %+v", k.req)
	}
	if k.ans != want {
		return fmt.Sprintf("served %+v, library %+v", k.ans, want)
	}
	return ""
}
