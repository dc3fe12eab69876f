package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

var workloadNames = []string{"cold-compute", "ingest-count", "hot-serve"}

// TestEveryMetricEmitted runs a seconds-long untraced and traced pass of
// each workload and checks every listed metric is reported, with the
// end-to-end ones positive.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			wl, err := newWorkload(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			res, err := untracedRun(wl, time.Second, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd, true)
			res, err = tracedRun(wl, 2*time.Second, t.TempDir(), name)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer, false)
			if res.Metrics["obs.tracing_overhead"].Value <= 0 {
				t.Errorf("tracing overhead not measured: %+v", res.Metrics["obs.tracing_overhead"])
			}
		})
	}
}

func checkResult(t *testing.T, res *result, want []struct{ name, unit string }, positive bool) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, %d listed", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.name)
		case got.Unit != m.unit:
			t.Errorf("metric %s unit %q, want %q", m.name, got.Unit, m.unit)
		case positive && !(got.Value > 0):
			t.Errorf("metric %s = %v, want > 0", m.name, got.Value)
		}
	}
}

// TestVerifierRejectsCorruptedChecksum serves a short hot-serve window,
// corrupts one served checksum and expects verification to fail.
func TestVerifierRejectsCorruptedChecksum(t *testing.T) {
	wl := newHot(3)
	f, err := wl.setup(nil)
	if err != nil {
		t.Fatal(err)
	}
	w := wl.run(f, 200*time.Millisecond)
	f.close()
	if _, err := wl.verify(nil, []*window{f.warm, w}); err != nil {
		t.Fatalf("clean window rejected: %v", err)
	}
	for k := range w.answers {
		bad := k
		bad.ans.Checksum = "fnv64:0000000000000000"
		delete(w.answers, k)
		w.answers[bad] = struct{}{}
		break
	}
	_, err = wl.verify(nil, []*window{f.warm, w})
	if err == nil || !strings.Contains(err.Error(), "fnv64:0000000000000000") {
		t.Fatalf("corrupted checksum not rejected: %v", err)
	}
}

// TestSequenceReplayable checks the request sequence is a function of
// the seed alone.
func TestSequenceReplayable(t *testing.T) {
	for _, name := range []string{"cold-compute", "hot-serve"} {
		a, _ := newWorkload(name, 5)
		b, _ := newWorkload(name, 5)
		c, _ := newWorkload(name, 6)
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 5 gave digests %s and %s", name, a.digest(), b.digest())
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 5 and 6 gave the same sequence", name)
		}
	}
}

// TestBenchmarkJSONMatches checks the repository's BENCHMARK.json names
// workloads this program runs and exactly the metrics it reports.
// BENCHMARK.json may gate a subset of the workloads.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) < 2 {
		t.Errorf("%d workloads, want at least 2", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Error(err)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), program reports %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
