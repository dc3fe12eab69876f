package bench

import (
	"context"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/obs"
	"dexpander/internal/service"
	"dexpander/internal/triangle"
)

// TestTracingDisabledOverhead is the overhead guard on the kernel
// surface: triangle.Count on the 2D path with tracing DISABLED (nil
// Span, nil Check) must stay within noise of the bare block-triple task
// loop it wraps — the instrumentation collapses to one pointer test per
// task. Both sides run on one goroutine over the same tiling. The 2x
// bound is deliberately generous (CI machines are noisy); a real
// regression (per-task allocation, say) lands far above it.
func TestTracingDisabledOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison; run without -short")
	}
	g := gen.GNP(800, 0.05, 1)
	view := graph.WholeGraph(g)
	bare := func() int {
		pl := triangle.NewDistPlan(view, triangle.AutoGrid(1, g.N()))
		n := 0
		for _, tr := range pl.Tiling.Triples() {
			n += pl.CountTriple(tr)
		}
		return n
	}
	want := bare()

	base := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bare()
		}
	})
	instr := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n, err := triangle.Count(view, triangle.Options{Workers: 1, Kernel: triangle.Kernel2D})
			if err != nil || n != want {
				b.Fatalf("instrumented kernel: count %d err %v, want %d", n, err, want)
			}
		}
	})
	ratio := float64(instr.NsPerOp()) / float64(base.NsPerOp())
	t.Logf("2D kernel: bare task loop %v/op, Count(tracing disabled) %v/op, ratio %.3f",
		base.NsPerOp(), instr.NsPerOp(), ratio)
	if ratio > 2 {
		t.Errorf("tracing-disabled kernel is %.2fx the bare task loop (bound 2x)", ratio)
	}
}

// serveLoop drives repeated cache-hit queries — the per-query serving
// path where observability overhead would show up — against a service
// built from cfg.
func serveLoop(b *testing.B, cfg service.Config) {
	svc := service.New(cfg)
	defer svc.Close()
	snap, err := svc.RegisterSpec("", gen.Spec{
		Family: "gnp", Params: map[string]float64{"n": 256, "p": 0.05}, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := svc.Query(ctx, "", snap.ID, service.CountParams{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Query(ctx, "", snap.ID, service.CountParams{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeTracingOff / On make the serving-path overhead visible
// in the bench job output; compare ns/op across the pair.
func BenchmarkServeTracingOff(b *testing.B) {
	serveLoop(b, service.Config{Workers: 2})
}

func BenchmarkServeTracingOn(b *testing.B) {
	serveLoop(b, service.Config{Workers: 2, Tracer: obs.NewTracer(4096, 1)})
}
