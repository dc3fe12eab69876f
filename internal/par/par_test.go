package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"dexpander/internal/obs"
)

func TestWorkersResolution(t *testing.T) {
	if w := Workers(0); w < 1 {
		t.Fatalf("Workers(0) = %d", w)
	}
	if w := Workers(-3); w < 1 {
		t.Fatalf("Workers(-3) = %d", w)
	}
	if w := Workers(5); w != 5 {
		t.Fatalf("Workers(5) = %d", w)
	}
}

// TestForEachCoversEveryIndexOnce checks the dispatch contract for the
// inline path, the clamped path, and a genuinely fanned-out pool.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 50
		var hits [n]atomic.Int32
		ForEach(workers, n, nil, nil, "", func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
	ForEach(4, 0, nil, nil, "", func(i int) { t.Fatal("fn called for n=0") })
}

// TestForEachCheckUncanceledMatchesForEach: with a never-firing (or nil)
// probe, ForEach runs every call exactly once and returns nil.
func TestForEachCheckUncanceledMatchesForEach(t *testing.T) {
	for _, cp := range []Checkpoint{nil, func() error { return nil }} {
		for _, workers := range []int{1, 2, 7, 64} {
			const n = 50
			var hits [n]atomic.Int32
			if err := ForEach(workers, n, cp, nil, "", func(i int) { hits[i].Add(1) }); err != nil {
				t.Fatalf("workers=%d: uncanceled run returned %v", workers, err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
				}
			}
		}
	}
}

// TestForEachCheckStopsOnCancel: once the probe fires, no further tasks
// start and the probe's error is surfaced — on both the inline and the
// fanned-out paths.
func TestForEachCheckStopsOnCancel(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 8} {
		var ran atomic.Int32
		var fired atomic.Bool
		cp := func() error {
			if fired.Load() {
				return boom
			}
			return nil
		}
		err := ForEach(workers, 1000, cp, nil, "", func(i int) {
			ran.Add(1)
			if ran.Load() >= 3 {
				fired.Store(true)
			}
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		// Every worker may finish the task it had in hand, but nothing new
		// starts after the probe fires: the count stays far below n.
		if got := ran.Load(); got >= 1000 {
			t.Fatalf("workers=%d: %d tasks ran after cancellation", workers, got)
		}
	}
}

// TestForEachCheckPreCanceled: a probe that fails from the start means
// zero tasks run.
func TestForEachCheckPreCanceled(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := ForEach(workers, 10, func() error { return boom }, nil, "", func(i int) {
			t.Fatal("task ran under a pre-canceled probe")
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
	}
}

// TestForEachSpanPerTask: with a parent span every task runs under one
// child span of the given name, on the inline and the fanned-out paths.
func TestForEachSpanPerTask(t *testing.T) {
	for _, workers := range []int{1, 4} {
		tr := obs.NewTracer(64, 1)
		root := tr.Root("req", "root")
		if err := ForEach(workers, 6, nil, root, "unit.task", func(i int) {}); err != nil {
			t.Fatal(err)
		}
		root.End()
		tasks := 0
		for _, sp := range tr.Trace("req") {
			if sp.Name == "unit.task" {
				tasks++
				if sp.Parent != root.ID {
					t.Fatalf("workers=%d: task span parented at %d, want %d", workers, sp.Parent, root.ID)
				}
			}
		}
		if tasks != 6 {
			t.Fatalf("workers=%d: %d task spans, want 6", workers, tasks)
		}
	}
}

// TestCheckpointFromContext covers the adapter's three shapes: nil-able
// contexts yield a nil probe, a live context probes clean, a canceled
// one reports its error.
func TestCheckpointFromContext(t *testing.T) {
	if cp := CheckpointFromContext(nil); cp != nil { //nolint:staticcheck // nil ctx is the point
		t.Fatal("nil context must yield a nil checkpoint")
	}
	if cp := CheckpointFromContext(context.Background()); cp != nil {
		t.Fatal("never-canceled context must yield a nil checkpoint")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cp := CheckpointFromContext(ctx)
	if cp == nil {
		t.Fatal("cancelable context yielded a nil checkpoint")
	}
	if err := cp(); err != nil {
		t.Fatalf("probe before cancel: %v", err)
	}
	cancel()
	if err := cp(); !errors.Is(err, context.Canceled) {
		t.Fatalf("probe after cancel: %v", err)
	}
}
