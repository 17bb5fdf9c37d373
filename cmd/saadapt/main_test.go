package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"smartarrays/internal/bench"
	"smartarrays/internal/obs"
)

// TestTraceEmitsOneDecisionPerStep runs the real binary with -trace and
// checks the trace holds exactly one decision event per adaptivity step
// in the evaluation grid, each with a non-empty candidate set and both
// the estimated and realized cost filled in.
func TestTraceEmitsOneDecisionPerStep(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the saadapt binary")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "saadapt.trace.jsonl")
	metrics := filepath.Join(dir, "metrics.json")

	cmd := exec.Command("go", "run", ".", "-trace", trace, "-metrics-out", metrics)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("saadapt failed: %v\n%s", err, out)
	}

	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	decisions := 0
	for dec := json.NewDecoder(f); dec.More(); {
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("trace is not valid JSONL: %v", err)
		}
		if ev.Kind != obs.KindDecision {
			continue
		}
		decisions++
		d := ev.Decision
		if d == nil {
			t.Fatalf("seq %d: decision event without payload", ev.Seq)
		}
		if d.Name == "" || d.Chosen == "" || len(d.Candidates) == 0 {
			t.Errorf("seq %d: incomplete decision event: %+v", ev.Seq, d)
		}
		if d.RealizedMs <= 0 || d.BestMs <= 0 {
			t.Errorf("seq %d: missing realized/best cost: %+v", ev.Seq, d)
		}
	}

	want := bench.RunAdaptivity(nil).Cases
	if decisions != want {
		t.Fatalf("trace has %d decision events, want one per adaptivity step (%d)",
			decisions, want)
	}

	// The -metrics-out aggregate must agree with the trace.
	mf, err := os.Open(metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	var m obs.Metrics
	if err := json.NewDecoder(mf).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Decisions != decisions {
		t.Fatalf("metrics report %d decisions, trace has %d", m.Decisions, decisions)
	}
}
