package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestMetricsLatestCounters(t *testing.T) {
	r := NewRecorder(16)
	r.RecordCounters("old", []SocketCounters{{Socket: 0, Accesses: 1}})
	r.RecordCounters("new", []SocketCounters{{Socket: 0, Accesses: 2}})
	m := r.Metrics()
	if len(m.Counters) != 1 || m.Counters[0].Accesses != 2 {
		t.Fatalf("Metrics must surface the newest counters snapshot, got %+v", m.Counters)
	}
}

// TestFinishWritesMetrics pins -metrics-out's one meaning: Finish writes
// the recorder's Metrics as decodable JSON when the flag is set, and no
// file when it is not.
func TestFinishWritesMetrics(t *testing.T) {
	dir := t.TempDir()
	r := NewRecorder(16)
	r.RecordLoop(LoopStats{Begin: 0, End: 100, Grain: 10, Batches: 10, Iterations: 100})
	r.RecordDecision(DecisionEvent{Name: "d"})

	path := filepath.Join(dir, "metrics.json")
	f := Flags{MetricsOut: path}
	if err := f.Finish(r); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Metrics
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("-metrics-out is not a Metrics JSON: %v\n%s", err, b)
	}
	if want := r.Metrics(); got.Events != want.Events || got.Decisions != 1 ||
		got.Loops.Loops != 1 || got.Loops.Iterations != 100 {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}

	var unset Flags
	if err := unset.Finish(r); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("Finish without -metrics-out wrote files: %v %v", entries, err)
	}
}
