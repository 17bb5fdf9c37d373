package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// sampleProfile builds a fully-populated profile the way the serving
// stack does, then pins the wall-clock-derived fields so the wire form
// is deterministic.
func sampleProfile() *QueryProfile {
	p := NewQueryProfileAt(42, time.Now())
	p.Op = "aggregate"
	p.Dataset = "demo"
	p.Tenant = "tenant-1"
	p.Plan = "sum(amount) where region < 3"
	p.Cache = CacheMiss
	p.Stage("parse", 1500)
	p.Stage("cache", 800)
	p.Stage("admission", 2200)
	p.Stage("execute", 950000)
	p.QueueWaitNs = 2100
	p.AddLoop(6, 2)
	p.AddLoop(8, 0)
	p.AddColumn(ColumnProfile{
		Column: "region", Role: RolePredicate, Codec: "dict",
		Chunks: 16, ChunksScanned: 10, ChunksPruned: 6, BytesDecoded: 5120,
	})
	p.AddColumn(ColumnProfile{
		Column: "amount", Role: RoleTarget, Codec: "bitpack",
		Chunks: 16, ChunksScanned: 10, ChunksPruned: 6, BytesDecoded: 7680,
	})
	p.FinalizeAt("ok", 200, time.Now())
	p.TotalNs = 957300 // pin the only wall-clock field after Finalize
	return p
}

// TestQueryProfileGolden locks the profile wire format: the JSON a
// client sees from "explain": true, /debug/slowlog, and /debug/query/<id>
// must not drift silently. Regenerate with `go test -run Golden -update`.
func TestQueryProfileGolden(t *testing.T) {
	got, err := json.MarshalIndent(sampleProfile(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "queryprofile.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("profile JSON drifted from golden file:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestQueryProfileRoundTrip marshals, unmarshals, and re-marshals: the
// wire fields must survive the trip bit-for-bit (unexported collection
// state is deliberately not serialized).
func TestQueryProfileRoundTrip(t *testing.T) {
	first, err := json.Marshal(sampleProfile())
	if err != nil {
		t.Fatal(err)
	}
	var back QueryProfile
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("round trip not stable:\nfirst:  %s\nsecond: %s", first, second)
	}
	if back.ID != 42 || back.Status != "ok" || back.HTTPStatus != 200 {
		t.Errorf("identity fields lost: id=%d status=%q http=%d", back.ID, back.Status, back.HTTPStatus)
	}
	if len(back.Stages) != 4 || len(back.Columns) != 2 {
		t.Errorf("stages/columns lost: %d stages, %d columns", len(back.Stages), len(back.Columns))
	}
	if back.Cache != CacheMiss {
		t.Errorf("cache outcome lost: %q", back.Cache)
	}
	if back.Loops != 2 || back.MorselsClaimed != 14 || back.MorselsStolen != 2 {
		t.Errorf("loop counters lost: loops=%d claimed=%d stolen=%d",
			back.Loops, back.MorselsClaimed, back.MorselsStolen)
	}
}

// TestQueryProfileNilSafe pins the one annotation the runtime makes
// whether or not a query is running: a loop outside one attributes to a
// nil profile.
func TestQueryProfileNilSafe(t *testing.T) {
	var p *QueryProfile
	p.AddLoop(1, 1)
}

func TestQueryProfileFinalizeIdempotent(t *testing.T) {
	p := NewQueryProfileAt(7, time.Now())
	p.FinalizeAt("shed", 429, time.Now())
	total := p.TotalNs
	p.FinalizeAt("ok", 200, time.Now()) // must not overwrite the first terminal state
	if p.Status != "shed" || p.HTTPStatus != 429 || p.TotalNs != total {
		t.Fatalf("second Finalize overwrote terminal state: %+v", p)
	}
	if p.Stages == nil {
		t.Fatal("Finalize must leave Stages non-nil for stable JSON")
	}
}
