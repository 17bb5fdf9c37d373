package loadgen

import (
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"smartarrays/internal/machine"
	"smartarrays/internal/obs"
	"smartarrays/internal/queryd"
	"smartarrays/internal/rts"
)

func TestPickerRespectsWeights(t *testing.T) {
	mix := []QuerySpec{
		{Name: "a", Weight: 9, Body: []byte(`{}`)},
		{Name: "b", Weight: 1, Body: []byte(`{}`)},
	}
	pk, err := newPicker(mix)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[mix[pk.pick(rng)].Name]++
	}
	if counts["a"] < 8500 || counts["b"] < 500 {
		t.Fatalf("picks = %v, want ~9:1", counts)
	}
	if _, err := newPicker(nil); err == nil {
		t.Fatal("empty mix accepted")
	}
	if _, err := newPicker([]QuerySpec{{Name: "x", Weight: 0}}); err == nil {
		t.Fatal("zero weight accepted")
	}
}

func TestDefaultMixShape(t *testing.T) {
	both := DefaultMix(queryd.Meta{Name: "d", Rows: 10, Vertices: 10})
	tableOnly := DefaultMix(queryd.Meta{Name: "d", Rows: 10})
	graphOnly := DefaultMix(queryd.Meta{Name: "d", Vertices: 10})
	if len(both) != len(tableOnly)+len(graphOnly) {
		t.Fatalf("mix sizes: both %d, table %d, graph %d", len(both), len(tableOnly), len(graphOnly))
	}
	if len(tableOnly) == 0 || len(graphOnly) == 0 {
		t.Fatal("empty sub-mixes")
	}
	for _, s := range both {
		if s.Weight <= 0 || len(s.Body) == 0 {
			t.Fatalf("bad spec %+v", s)
		}
	}
}

// TestRunAgainstLiveServer runs the full generator (closed loop, then a
// short open-loop burst) and the spot check against a real server.
func TestRunAgainstLiveServer(t *testing.T) {
	srv, err := queryd.NewServer(rts.New(machine.UMA(4)), queryd.DefaultConfig(), []queryd.DatasetSpec{
		{Name: "demo", Rows: 10000, Vertices: 1000, Seed: 3},
	}, obs.NewRecorder(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	if err := SpotCheck(addr); err != nil {
		t.Fatal(err)
	}

	rep, err := Run(Options{Addr: addr, Duration: 400 * time.Millisecond, Concurrency: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 || rep.QPS <= 0 {
		t.Fatalf("closed loop served nothing: %+v", rep)
	}
	if rep.Errors5xx != 0 || rep.Transport != 0 {
		t.Fatalf("closed loop errors: %+v", rep)
	}
	if rep.P99MS < rep.P50MS || rep.P50MS <= 0 {
		t.Fatalf("quantiles inverted: %+v", rep)
	}
	if rep.Summary() == "" {
		t.Fatal("empty summary")
	}

	open, err := Run(Options{Addr: addr, Duration: 300 * time.Millisecond, Rate: 200, Concurrency: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if open.Sent == 0 {
		t.Fatalf("open loop sent nothing: %+v", open)
	}

	report := t.TempDir() + "/report.json"
	if err := rep.WriteFile(report); err != nil {
		t.Fatal(err)
	}

	// Per-op latency summaries: every served op gets a quantile row whose
	// counts sum to OK.
	var perOpTotal uint64
	for name, l := range rep.PerOp {
		if l.Count == 0 || l.P99MS < l.P50MS {
			t.Fatalf("per-op %s: bad summary %+v", name, l)
		}
		perOpTotal += l.Count
	}
	if perOpTotal != rep.OK {
		t.Fatalf("per-op counts sum to %d, OK %d", perOpTotal, rep.OK)
	}

	// AggOnly restricts the mix to table scans.
	aggRep, err := Run(Options{Addr: addr, Duration: 200 * time.Millisecond, Concurrency: 2, AggOnly: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for name := range aggRep.PerOp {
		switch name {
		case "agg-sum", "agg-count", "agg-max", "groupby":
		default:
			t.Fatalf("AggOnly run served non-table op %q", name)
		}
	}
}

func TestTableOnlyFiltersMix(t *testing.T) {
	mix := DefaultMix(queryd.Meta{Name: "d", Rows: 10, Vertices: 10})
	filtered := TableOnly(mix)
	if len(filtered) == 0 || len(filtered) >= len(mix) {
		t.Fatalf("TableOnly kept %d of %d specs", len(filtered), len(mix))
	}
	for _, s := range filtered {
		var body struct {
			Op string `json:"op"`
		}
		if err := json.Unmarshal(s.Body, &body); err != nil {
			t.Fatal(err)
		}
		if body.Op != "aggregate" && body.Op != "groupby" {
			t.Fatalf("non-table op %q survived the filter", body.Op)
		}
	}
}

// TestStreamSeedsDecorrelated asserts derived per-client streams are
// distinct (no two clients replay each other) yet reproducible (the same
// seed and stream always derive the same source).
func TestStreamSeedsDecorrelated(t *testing.T) {
	seen := map[int64]bool{}
	for c := uint64(0); c < 256; c++ {
		s := streamSeed(42, c)
		if seen[s] {
			t.Fatalf("stream %d collides", c)
		}
		seen[s] = true
		if s != streamSeed(42, c) {
			t.Fatal("streamSeed not deterministic")
		}
	}
	if streamSeed(1, 0) == streamSeed(2, 0) {
		t.Fatal("different seeds derive the same stream")
	}

	// The derived streams must yield distinct pick sequences even for
	// adjacent client indexes — the correlation the raw +c+1 seeding had.
	mix := []QuerySpec{
		{Name: "a", Weight: 1, Body: []byte(`{}`)},
		{Name: "b", Weight: 1, Body: []byte(`{}`)},
	}
	pk, err := newPicker(mix)
	if err != nil {
		t.Fatal(err)
	}
	seq := func(stream uint64) string {
		rng := rand.New(rand.NewSource(streamSeed(7, stream)))
		var s []byte
		for i := 0; i < 64; i++ {
			s = append(s, mix[pk.pick(rng)].Name[0])
		}
		return string(s)
	}
	if seq(2) == seq(3) {
		t.Fatal("adjacent client streams replay the same pick sequence")
	}
	if seq(2) != seq(2) {
		t.Fatal("pick sequence not reproducible for a fixed seed")
	}
}
