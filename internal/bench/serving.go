package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dexpander/internal/graph"
	"dexpander/internal/service"
	"dexpander/internal/triangle"
)

// ServingScenarios is the serving-path slice of the matrix: the graph
// shapes whose queries the dexpanderd cache amortizes (a random graph
// and a certified expander-of-cliques).
func ServingScenarios() []Scenario {
	return []Scenario{
		gnpScenario(64, 0.25),
		expanderOfCliquesScenario(6, 8, 3),
	}
}

// servingHotQueries is the number of repeated query triples the hot cell
// issues after warming the cache. The hot per-query cost is
// (serve-hot wall - serve-cold wall) / (3 * servingHotQueries), since
// both cells pay the identical boot+register+first-compute prefix.
const servingHotQueries = 64

// ServingAlgorithms measures the HTTP serving path end to end over a
// loopback listener:
//
//   - serve-cold: boot a fresh dexpanderd service, upload the scenario
//     graph as an edge list, and run one decompose + triangle-count +
//     enumerate triple — every answer computed from scratch. This is the
//     first-query latency a cold replica pays.
//   - serve-hot: the same prefix, then servingHotQueries identical
//     triples served from the single-flight cache — the steady-state
//     path a warm replica serves traffic on.
//   - serve-cancel: the same prefix, but first a decompose with a ~1ms
//     deadline is fired and abandoned. Whether it lands before or after
//     expiry is a race the cell does NOT try to win: the contract is
//     that the following full-budget triple carries serve-cold's exact
//     checksum either way — cancellation never corrupts or poisons the
//     cache.
//
// Cell checksums digest the three response checksums (which themselves
// equal the direct library calls' digests), so the CI baseline pins the
// served bytes' determinism, and the hot/cold/cancel cells of one
// scenario must carry the SAME checksum — re-proving cache (and
// cancellation) transparency on every run.
func ServingAlgorithms() []Algorithm {
	return []Algorithm{
		{Name: "serve-cold", Run: servingCell(0, false)},
		{Name: "serve-hot", Run: servingCell(servingHotQueries, false)},
		{Name: "serve-cancel", Run: servingCell(0, true)},
		{Name: "count-2d", Run: runCount2D},
		{Name: "serve-dist", Run: runServeDist},
	}
}

// servingDistReplicas is the loopback fleet size the serve-dist cell
// boots: the coordinator fans block triples across this many replica
// services.
const servingDistReplicas = 3

// runServeDist measures the distributed counting path end to end: boot
// servingDistReplicas replica services plus a coordinator configured
// with their URLs, register the scenario graph on the coordinator, and
// run one count-dist query — fragment pushes, remote per-triple counts,
// and the task-order reduction all over loopback HTTP. The cell digests
// the served total exactly like runCount2D digests the local kernel's,
// so the scenario's serve-dist and count-2d cells must carry the SAME
// checksum — the baseline gate re-proves the distributed total's
// bit-identity to the local 2D kernel on every CI run (and the cell
// itself diffs the two before returning).
func runServeDist(view *graph.Sub, seed uint64) (Result, error) {
	var peers []string
	for i := 0; i < servingDistReplicas; i++ {
		svc := service.New(service.Config{Workers: 2})
		defer svc.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return Result{}, err
		}
		server := &http.Server{Handler: svc.Handler()}
		go server.Serve(ln) //nolint:errcheck
		defer server.Close()
		peers = append(peers, "http://"+ln.Addr().String())
	}

	svc := service.New(service.Config{Workers: 2, Peers: peers})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return Result{}, err
	}
	server := &http.Server{Handler: svc.Handler()}
	go server.Serve(ln) //nolint:errcheck
	defer server.Close()

	ctx := context.Background()
	c := service.NewClient("http://" + ln.Addr().String())

	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, view.Base()); err != nil {
		return Result{}, err
	}
	snap, err := c.RegisterEdgeList(ctx, &buf)
	if err != nil {
		return Result{}, err
	}
	res, err := c.TriangleCountDist(ctx, snap.ID, service.DistCountParams{})
	if err != nil {
		return Result{}, err
	}
	want, err := triangle.Count(view, triangle.Options{Kernel: triangle.Kernel2D})
	if err != nil {
		return Result{}, err
	}
	if res.Triangles != want {
		return Result{}, fmt.Errorf("bench: serve-dist counted %d triangles, local 2D kernel %d", res.Triangles, want)
	}
	sums, err := parseChecksums(res.Checksum)
	if err != nil {
		return Result{}, err
	}
	if sums[0] != triangle.HashWords(uint64(res.Triangles)) {
		return Result{}, fmt.Errorf("bench: serve-dist checksum %s does not digest its own count %d", res.Checksum, res.Triangles)
	}
	return Result{Triangles: res.Triangles, Checksum: sums[0]}, nil
}

// servingCell boots a service over loopback HTTP, registers the view's
// base graph, optionally fires one deadline-doomed decompose, then runs
// one cold query triple and hotReps cached triples.
func servingCell(hotReps int, cancelFirst bool) func(view *graph.Sub, seed uint64) (Result, error) {
	return func(view *graph.Sub, seed uint64) (Result, error) {
		svc := service.New(service.Config{Workers: 2})
		defer svc.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return Result{}, err
		}
		server := &http.Server{Handler: svc.Handler()}
		go server.Serve(ln) //nolint:errcheck
		defer server.Close()

		ctx := context.Background()
		c := service.NewClient("http://" + ln.Addr().String())

		var buf bytes.Buffer
		if err := graph.WriteEdgeList(&buf, view.Base()); err != nil {
			return Result{}, err
		}
		snap, err := c.RegisterEdgeList(ctx, &buf)
		if err != nil {
			return Result{}, err
		}

		if cancelFirst {
			// Same key as the triple below. Success, ErrDeadline, and
			// client-side expiry are all legitimate outcomes of the race;
			// anything else is a real fault.
			tctx, tcancel := context.WithTimeout(ctx, time.Millisecond)
			_, err := c.Decompose(tctx, snap.ID, service.DecomposeParams{Seed: seed})
			tcancel()
			if err != nil && !errors.Is(err, service.ErrDeadline) &&
				!errors.Is(err, service.ErrCanceled) &&
				!errors.Is(err, context.DeadlineExceeded) {
				return Result{}, fmt.Errorf("canceled decompose: %w", err)
			}
		}

		var res Result
		for rep := 0; rep <= hotReps; rep++ {
			dec, err := c.Decompose(ctx, snap.ID, service.DecomposeParams{Seed: seed})
			if err != nil {
				return Result{}, err
			}
			count, err := c.TriangleCount(ctx, snap.ID, service.CountParams{})
			if err != nil {
				return Result{}, err
			}
			enum, err := c.Enumerate(ctx, snap.ID, service.EnumerateParams{Seed: seed})
			if err != nil {
				return Result{}, err
			}
			sums, err := parseChecksums(dec.Checksum, count.Checksum, enum.Checksum)
			if err != nil {
				return Result{}, err
			}
			triple := Result{Triangles: count.Triangles, Checksum: triangle.HashWords(sums...)}
			if rep == 0 {
				res = triple
			} else if triple != res {
				// The cache must be transparent: hot responses carry the
				// cold computation's exact digests.
				return Result{}, fmt.Errorf("hot rep %d diverged from cold responses", rep)
			}
		}
		return res, nil
	}
}

// parseChecksums decodes "fnv64:<16 hex>" response digests into words.
func parseChecksums(strs ...string) ([]uint64, error) {
	out := make([]uint64, len(strs))
	for i, s := range strs {
		hex, ok := strings.CutPrefix(s, "fnv64:")
		if !ok {
			return nil, fmt.Errorf("bench: malformed checksum %q", s)
		}
		v, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("bench: malformed checksum %q: %w", s, err)
		}
		out[i] = v
	}
	return out, nil
}
