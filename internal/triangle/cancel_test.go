package triangle

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/par"
)

// TestEnumerateCheckpointIsTransparent: a never-firing probe is consulted
// but leaves the triangle set and cost accounting bit-identical.
func TestEnumerateCheckpointIsTransparent(t *testing.T) {
	g := gen.RingOfCliques(5, 10, 2)
	view := graph.WholeGraph(g)
	opt := Options{Seed: 9}
	plain, plainStats, err := Enumerate(view, opt)
	if err != nil {
		t.Fatal(err)
	}

	var probes atomic.Int64
	opt.Check = func() error { probes.Add(1); return nil }
	checked, checkedStats, err := Enumerate(view, opt)
	if err != nil {
		t.Fatal(err)
	}
	if probes.Load() == 0 {
		t.Fatal("checkpoint was never consulted")
	}
	if plain.Checksum() != checked.Checksum() || plain.Len() != checked.Len() {
		t.Fatalf("checkpointed enumeration diverged: %d/%#x vs %d/%#x",
			plain.Len(), plain.Checksum(), checked.Len(), checked.Checksum())
	}
	if plainStats != checkedStats {
		t.Fatalf("stats diverged:\nplain   %+v\nchecked %+v", plainStats, checkedStats)
	}
}

// TestEnumerateCanceled: both a pre-canceled context and a probe firing
// mid-run abort the enumeration with the underlying cause.
func TestEnumerateCanceled(t *testing.T) {
	g := gen.RingOfCliques(5, 10, 2)
	view := graph.WholeGraph(g)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Enumerate(view, Options{Seed: 9, Check: par.CheckpointFromContext(ctx)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled enumerate: %v", err)
	}

	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var probes atomic.Int64
		check := func() error {
			if probes.Add(1) > 5 {
				return boom
			}
			return nil
		}
		_, _, err := Enumerate(view, Options{Seed: 9, Workers: workers, Check: check})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: mid-run canceled enumerate: %v", workers, err)
		}
	}
}

// TestCountKernelCheckCancel covers each kernel's Count path: a
// pre-canceled probe aborts, a never-firing probe reproduces the exact
// uncanceled count.
func TestCountKernelCheckCancel(t *testing.T) {
	g := gen.GNP(48, 0.3, 5)
	view := graph.WholeGraph(g)
	want := BruteForce(view).Len()
	boom := errors.New("boom")
	for _, k := range []Kernel{KernelAuto, KernelRank, Kernel2D} {
		for _, workers := range []int{1, 4} {
			opt := Options{Workers: workers, Kernel: k, Check: func() error { return boom }}
			if _, err := Count(view, opt); !errors.Is(err, boom) {
				t.Fatalf("kernel=%v workers=%d: pre-canceled count: %v", k, workers, err)
			}
			var probes atomic.Int64
			opt.Check = func() error { probes.Add(1); return nil }
			got, err := Count(view, opt)
			if err != nil {
				t.Fatalf("kernel=%v workers=%d: %v", k, workers, err)
			}
			if probes.Load() == 0 {
				t.Fatalf("kernel=%v workers=%d: checkpoint never consulted", k, workers)
			}
			if got != want {
				t.Fatalf("kernel=%v workers=%d: count %d, want %d", k, workers, got, want)
			}
		}
	}
}

// TestSetKernelCheckCancel mirrors the counting coverage for List (2D
// resolves to rank for enumeration), including a probe that fires
// mid-run inside a rank shard.
func TestSetKernelCheckCancel(t *testing.T) {
	g := gen.GNP(48, 0.3, 5)
	view := graph.WholeGraph(g)
	want := BruteForce(view)
	boom := errors.New("boom")
	for _, k := range []Kernel{KernelRank, Kernel2D} {
		if _, err := List(view, Options{Workers: 4, Kernel: k, Check: func() error { return boom }}); !errors.Is(err, boom) {
			t.Fatalf("kernel=%v: pre-canceled set: %v", k, err)
		}
		var probes atomic.Int64
		late := func() error {
			if probes.Add(1) > 10 {
				return boom
			}
			return nil
		}
		if _, err := List(view, Options{Workers: 1, Kernel: k, Check: late}); !errors.Is(err, boom) {
			t.Fatalf("kernel=%v: mid-run canceled set: %v", k, err)
		}
		set, err := List(view, Options{Workers: 4, Kernel: k, Check: func() error { return nil }})
		if err != nil {
			t.Fatalf("kernel=%v: %v", k, err)
		}
		if set.Checksum() != want.Checksum() || set.Len() != want.Len() {
			t.Fatalf("kernel=%v: checkpointed set diverged", k)
		}
	}
}
