package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/obs"
)

// populate fills a recorder and registry the way a real run would: loop
// events, a counters snapshot, decision/drift events, histogram
// observations, and two array profiles with accounted access telemetry.
func populate(t *testing.T) (*obs.Recorder, *obs.ArrayRegistry) {
	t.Helper()
	rec := obs.NewRecorder(256)
	rec.RecordLoop(obs.NewLoopStats(0, 4096, 4096, 1024, []uint64{2, 2}, nil, []int{0, 1}))
	rec.RecordCounters("test", []obs.SocketCounters{
		{Socket: 0, Instructions: 1000, LocalReadBytes: 4096, RemoteReadBytes: 512, Accesses: 640},
		{Socket: 1, Instructions: 900, LocalReadBytes: 2048, RemoteWriteBytes: 64, RandomAccesses: 5},
	})
	rec.RecordDecision(obs.DecisionEvent{Name: "agg", Chosen: "interleaved + compression"})
	rec.RecordDrift(obs.DriftEvent{
		Name: "agg", Array: "hot", Initial: "replicated + compression",
		Live: "interleaved", RandomShare: 0.4, Folds: 7,
	})
	rec.Histogram("rts.loop").Observe(1500)
	rec.Histogram("rts.loop").Observe(90000)
	span := rec.StartSpan("phase")
	time.Sleep(time.Microsecond)
	span.End()

	reg := obs.NewArrayRegistry()
	hot := reg.Register("hot", 10, 1<<16, "interleaved")
	reg.Register("", 64, 1024, "replicated") // default-named array
	hot.Add(obs.AccessReduce, 3<<16, 1<<20, 1<<18)
	hot.Add(obs.AccessGather, 9000, 0, 0)
	hot.AddPredicate(1<<16, 1<<15)
	return rec, reg
}

// get scrapes one endpoint over real loopback TCP.
func get(t *testing.T, base, path string) (string, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// sampleLine matches one exposition sample: metric name, optional labels,
// and a float value.
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? ` +
		`(-?\d+(\.\d+)?([eE][-+]?\d+)?|[-+]?Inf|NaN)$`)

func TestServeEndpoints(t *testing.T) {
	rec, reg := populate(t)
	mem := memsim.New(machine.X52Small())
	region, err := mem.Alloc(memsim.PageWords, memsim.Replicated, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer region.Free()
	addr, stop, err := New(rec, reg, mem).Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stop() }()
	base := "http://" + addr

	t.Run("metrics", func(t *testing.T) {
		body, ctype := get(t, base, "/metrics")
		if !strings.HasPrefix(ctype, "text/plain") {
			t.Errorf("content type = %q", ctype)
		}
		typed := map[string]string{}
		samples := 0
		for _, line := range strings.Split(body, "\n") {
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "# TYPE ") {
				f := strings.Fields(line)
				if len(f) != 4 {
					t.Fatalf("malformed TYPE line: %q", line)
				}
				if _, dup := typed[f[2]]; dup {
					t.Errorf("duplicate TYPE for %s", f[2])
				}
				typed[f[2]] = f[3]
				continue
			}
			if strings.HasPrefix(line, "# HELP ") {
				continue
			}
			if !sampleLine.MatchString(line) {
				t.Errorf("invalid exposition line: %q", line)
				continue
			}
			samples++
		}
		if samples == 0 {
			t.Fatal("no samples in /metrics")
		}
		for _, want := range []string{
			`smartarrays_events_total `,
			`smartarrays_drifts_total 1`,
			`smartarrays_socket_instructions_total{socket="0"} 1000`,
			`smartarrays_latency_ns_bucket{name="rts.loop",le="+Inf"} 2`,
			`smartarrays_array_elements_total{array="hot",method="gather"} 9000`,
			`smartarrays_array_selectivity{array="hot"} 0.5`,
			`smartarrays_array_length{array="array-2"} 1024`,
			`smartarrays_memory_mapped_bytes 8192`,
			`smartarrays_memory_retired_bytes 0`,
			`smartarrays_go_heap_live_bytes `,
			`smartarrays_go_heap_goal_bytes `,
		} {
			if !strings.Contains(body, want) {
				t.Errorf("/metrics missing %q", want)
			}
		}
		// Histogram buckets must be cumulative and end at the count.
		if !strings.Contains(body, `smartarrays_latency_ns_count{name="rts.loop"} 2`) {
			t.Error("missing rts.loop histogram count")
		}
	})

	t.Run("arrays", func(t *testing.T) {
		body, ctype := get(t, base, "/arrays")
		if ctype != "application/json" {
			t.Errorf("content type = %q", ctype)
		}
		var payload struct {
			Arrays []struct {
				ID          uint64   `json:"id"`
				Name        string   `json:"name"`
				RandomShare float64  `json:"randomShare"`
				Selectivity *float64 `json:"selectivity"`
				Access      struct {
					GatherElems uint64 `json:"gatherElems"`
				} `json:"access"`
			} `json:"arrays"`
		}
		if err := json.Unmarshal([]byte(body), &payload); err != nil {
			t.Fatalf("/arrays not JSON: %v", err)
		}
		if len(payload.Arrays) != 2 {
			t.Fatalf("got %d arrays, want 2", len(payload.Arrays))
		}
		hot := payload.Arrays[0]
		if hot.Name != "hot" || hot.Access.GatherElems != 9000 {
			t.Errorf("hot profile wrong: %+v", hot)
		}
		if hot.RandomShare <= 0 || hot.Selectivity == nil || *hot.Selectivity != 0.5 {
			t.Errorf("derived fields wrong: share=%v sel=%v", hot.RandomShare, hot.Selectivity)
		}
	})

	t.Run("trace", func(t *testing.T) {
		body, ctype := get(t, base, "/trace")
		if ctype != "application/x-ndjson" {
			t.Errorf("content type = %q", ctype)
		}
		var events []obs.Event
		for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
			var ev obs.Event
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("/trace not parseable JSONL: %v", err)
			}
			events = append(events, ev)
		}
		if len(events) != rec.Len() {
			t.Errorf("trace has %d events, recorder holds %d", len(events), rec.Len())
		}
		var kinds []obs.Kind
		for _, ev := range events {
			kinds = append(kinds, ev.Kind)
		}
		for _, want := range []obs.Kind{obs.KindLoop, obs.KindCounters, obs.KindDecision, obs.KindDrift, obs.KindSpan} {
			found := false
			for _, k := range kinds {
				if k == want {
					found = true
				}
			}
			if !found {
				t.Errorf("trace missing kind %s (got %v)", want, kinds)
			}
		}
	})

	t.Run("decisions", func(t *testing.T) {
		body, _ := get(t, base, "/decisions")
		var payload struct {
			Decisions []obs.Event `json:"decisions"`
		}
		if err := json.Unmarshal([]byte(body), &payload); err != nil {
			t.Fatalf("/decisions not JSON: %v", err)
		}
		if len(payload.Decisions) != 2 {
			t.Fatalf("got %d audit events, want decision + drift", len(payload.Decisions))
		}
		if payload.Decisions[0].Decision == nil || payload.Decisions[1].Drift == nil {
			t.Errorf("audit log payloads wrong: %+v", payload.Decisions)
		}
		if payload.Decisions[1].Drift.Live != "interleaved" {
			t.Errorf("drift event corrupted: %+v", payload.Decisions[1].Drift)
		}
	})

	t.Run("index", func(t *testing.T) {
		body, _ := get(t, base, "/")
		if !strings.Contains(body, "/metrics") {
			t.Errorf("index missing endpoint listing: %q", body)
		}
	})
}

// TestServeNilSources: a server over nil telemetry must serve empty but
// valid payloads, not crash — the CLIs construct it unconditionally.
func TestServeNilSources(t *testing.T) {
	addr, stop, err := New(nil, nil, nil).Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stop() }()
	base := "http://" + addr
	for _, path := range []string{"/metrics", "/arrays", "/trace", "/decisions"} {
		body, _ := get(t, base, path)
		if strings.Contains(body, "null") {
			t.Errorf("%s serves null over nil sources: %q", path, body)
		}
	}
}
