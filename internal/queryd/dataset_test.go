package queryd

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/colstore"
	"smartarrays/internal/core"
	"smartarrays/internal/encoding"
	"smartarrays/internal/machine"
	"smartarrays/internal/rts"
)

// sliceColumns generates the served table's columns as plain slices, the
// way the build did before it streamed them: one xorshift pass from
// seed|1 filling all four at once.
func sliceColumns(rows, seed uint64) map[string][]uint64 {
	cols := map[string][]uint64{
		"id": make([]uint64, rows), "region": make([]uint64, rows),
		"amount": make([]uint64, rows), "flag": make([]uint64, rows),
	}
	x := seed | 1
	for i := range rows {
		x = xorshift64(x)
		cols["id"][i] = i
		cols["region"][i] = x % 16
		cols["amount"][i] = (x >> 16) % 65536
		cols["flag"][i] = (x >> 40) & 3 / 3
	}
	return cols
}

// TestBuildDatasetMatchesSliceBuild checks the windowed build against the
// plain-slice reference at lengths around chunk and window edges: every
// element, every column sum, the declared widths and the zone index's
// overall bounds.
func TestBuildDatasetMatchesSliceBuild(t *testing.T) {
	const w = colstore.BuildWindow
	rt := rts.New(machine.UMA(2))
	defer rt.Close()
	for _, rows := range []uint64{1, 10, 63, 64, 65, w - 1, w + 1, 3*w + 17} {
		t.Run(fmt.Sprint(rows), func(t *testing.T) {
			d, err := BuildDataset(rt, DatasetSpec{Name: "d", Rows: rows, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Free()
			ref := sliceColumns(rows, 7)
			wantBits := map[string]uint{"id": bitpack.MinBits(rows - 1), "region": 4, "amount": 16, "flag": 1}
			if len(d.Columns) != 4 {
				t.Fatalf("%d columns, want 4", len(d.Columns))
			}
			for _, meta := range d.Columns {
				want := ref[meta.Name]
				col, err := d.Table.Column(meta.Name)
				if err != nil {
					t.Fatal(err)
				}
				arr := col.Array()
				if got := arr.DecodeAll(); !slices.Equal(got, want) {
					t.Fatalf("column %s differs from the slice build", meta.Name)
				}
				var sum uint64
				for _, v := range want {
					sum += v
				}
				if meta.Sum != sum || meta.Bits != wantBits[meta.Name] || arr.Bits() != meta.Bits {
					t.Errorf("column %s: meta %+v at %d bits, want sum %d at %d bits", meta.Name, meta, arr.Bits(), sum, wantBits[meta.Name])
				}
				z := arr.ZoneIndex()
				if z == nil {
					t.Fatalf("column %s has no zone index", meta.Name)
				}
				chunks := (rows + bitpack.ChunkSize - 1) / bitpack.ChunkSize
				mn, mx := ^uint64(0), uint64(0)
				for s := uint64(0); s*encoding.ZoneFanout < chunks; s++ {
					smn, smx := z.SuperBounds(s)
					mn, mx = min(mn, smn), max(mx, smx)
				}
				if mn != slices.Min(want) || mx != slices.Max(want) {
					t.Errorf("column %s: zone root [%d,%d], values span [%d,%d]", meta.Name, mn, mx, slices.Min(want), slices.Max(want))
				}
			}
		})
	}
}

// TestBuildDatasetAllocations ratchets the build's heap traffic: a
// table-only 1 Mi-row dataset may allocate on the Go heap at most 0.75 x
// its packed payload. The payload itself is mapped outside the heap
// (memsim), so what is counted is the build's own scratch: ~3.2 MB for a
// 5.4 MB payload, against ~8.5 MB while the payload lived on the heap and
// 40 MB when every column was staged as a plain table-length slice. Race
// builds keep the payload on the heap (memsim's map_other.go), so there
// it is taken out of the count.
func TestBuildDatasetAllocations(t *testing.T) {
	rt := rts.New(machine.UMA(2))
	defer rt.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := BuildDataset(rt, DatasetSpec{Name: "d", Rows: 1 << 20, Seed: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Free()
	allocated, payload := after.TotalAlloc-before.TotalAlloc, d.Table.PayloadBytes()
	if raceEnabled {
		allocated -= rt.Memory().MappedBytes()
	}
	t.Logf("build allocated %d bytes for a %d-byte payload", allocated, payload)
	if allocated > payload*3/4 {
		t.Errorf("build allocated %d bytes, ceiling 0.75 x %d-byte payload", allocated, payload)
	}
}

// TestBuildGraphAllocations ratchets the graph build's heap traffic: a
// graph-only dataset of 100 000 vertices (800 000 edges) may allocate at
// most 11 B per edge on the Go heap. The generator's edge list is 8 of
// them and the two begin arrays' prefix sums 2 (graph.BuildSmart); the
// packed arrays are mapped outside the heap. Building a plain CSR and
// copying it into the packed arrays allocated 19.2 B per edge. Race
// builds keep the payload on the heap, so there it is taken out of the
// count.
func TestBuildGraphAllocations(t *testing.T) {
	rt := rts.New(machine.UMA(2))
	defer rt.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := BuildDataset(rt, DatasetSpec{Name: "g", Vertices: 100000, Seed: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Free()
	allocated := after.TotalAlloc - before.TotalAlloc
	if raceEnabled {
		allocated -= rt.Memory().MappedBytes()
	}
	perEdge := float64(allocated) / float64(d.Edges)
	t.Logf("build allocated %d bytes for %d edges: %.2f B per edge", allocated, d.Edges, perEdge)
	if perEdge > 11 {
		t.Errorf("build allocated %.2f B per edge, ceiling 11", perEdge)
	}
}

// TestServedGraphGoldenCSR decodes the served graph's four arrays and
// hashes them as graph.TestBuildGoldenCSR hashes a plain CSR (FNV-64a,
// begin arrays at 8 bytes and edge arrays at 4 per element): built
// straight into its packed arrays, the graph a dataset serves must be
// word for word the CSR graph.Build makes. Seed 0 seeds the generator
// with 1 at the default degree 8, the golden test's parameters, so the
// hashes are the ones it records.
func TestServedGraphGoldenCSR(t *testing.T) {
	rt := rts.New(machine.UMA(2))
	defer rt.Close()
	for _, c := range []struct{ n, want uint64 }{
		{2, 0xe84af735221894d3},
		{1000, 0xe26d5872fa0c00f1},
		{100000, 0x71bbfbe740bbea3f},
	} {
		d, err := BuildDataset(rt, DatasetSpec{Name: "g", Vertices: c.n})
		if err != nil {
			t.Fatal(err)
		}
		g := d.Graph
		h := fnv.New64a()
		var buf [8]byte
		for _, begin := range []*core.SmartArray{g.Begin, g.RBegin} {
			for _, v := range begin.DecodeAll() {
				binary.LittleEndian.PutUint64(buf[:], v)
				h.Write(buf[:])
			}
		}
		for _, edge := range []*core.SmartArray{g.Edge, g.REdge} {
			for _, v := range edge.DecodeAll()[:g.NumEdges] {
				binary.LittleEndian.PutUint32(buf[:4], uint32(v))
				h.Write(buf[:4])
			}
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("n=%d: served graph hash %#x, want %#x", c.n, got, c.want)
		}
		d.Free()
	}
}

// TestFootprintMatchesBuild: the footprint a spec is admitted on is what
// its build then allocates — table, graph and the PageRanker's arrays —
// so a spec that passes the check cannot run out of memory halfway.
func TestFootprintMatchesBuild(t *testing.T) {
	rt := rts.New(machine.UMA(2))
	defer rt.Close()
	for _, spec := range []DatasetSpec{
		{Name: "table", Rows: 100000, Seed: 3},
		{Name: "graph", Vertices: 3000, Seed: 3},
		{Name: "both", Rows: 70001, Vertices: 5003, Degree: 5, Seed: 3},
	} {
		used := rt.Memory().TotalUsedBytes()
		d, err := BuildDataset(rt, spec)
		if err != nil {
			t.Fatal(err)
		}
		words, ok := footprintWords(spec)
		if got := rt.Memory().TotalUsedBytes() - used; !ok || words*8 != got {
			t.Errorf("%s: footprint %d B (ok %v), the build allocated %d B", spec.Name, words*8, ok, got)
		}
		d.Free()
	}
}

// TestMetricsMappedPayloadOffHeap: /metrics says where the memory is. The
// mapped payload it reports is the memory's whole simulated footprint,
// and it lies outside the Go heap: a served table larger than everything
// else the process keeps live leaves the heap's live bytes below it
// (except in race builds, which keep the payload on the heap).
func TestMetricsMappedPayloadOffHeap(t *testing.T) {
	srv, ts := newTestServer(t, DefaultConfig())
	body, _ := json.Marshal(map[string]any{"datasets": []DatasetSpec{{Name: "big", Rows: 1 << 21, Seed: 3}}})
	resp, err := http.Post(ts.URL+"/control/config", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adding the dataset: status %d", resp.StatusCode)
	}
	runtime.GC()
	metrics := getBody(t, ts, "/metrics")
	sample := func(name string) float64 {
		for _, line := range strings.Split(metrics, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				var f float64
				if _, err := fmt.Sscan(v, &f); err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return f
			}
		}
		t.Fatalf("/metrics has no %s", name)
		return 0
	}
	mapped, retired := sample("smartarrays_memory_mapped_bytes"), sample("smartarrays_memory_retired_bytes")
	live, goal := sample("smartarrays_go_heap_live_bytes"), sample("smartarrays_go_heap_goal_bytes")
	t.Logf("mapped %.0f B, retired %.0f B, heap live %.0f B, goal %.0f B", mapped, retired, live, goal)
	if used := float64(srv.rt.Memory().TotalUsedBytes()); mapped != used || retired != 0 {
		t.Errorf("mapped %.0f B, retired %.0f B; want mapped = used = %.0f B, none retired", mapped, retired, used)
	}
	if !raceEnabled && mapped <= live {
		t.Errorf("mapped payload %.0f B does not exceed the heap's live %.0f B", mapped, live)
	}
}

// TestControlRejectsOversizedDataset: a dataset spec the machine cannot
// hold is refused with a 400 before anything is generated, instead of
// taking the process down, and the server keeps serving what it had.
func TestControlRejectsOversizedDataset(t *testing.T) {
	_, ts := newTestServer(t, DefaultConfig())
	get := func(path string) string { return getBody(t, ts, path) }
	catalog := get("/datasets")
	for _, spec := range []DatasetSpec{
		{Name: "big", Rows: 1 << 40},
		{Name: "big", Vertices: 1 << 32},
		{Name: "big", Vertices: 1<<32 + 1},
		{Name: "big", Vertices: 1000, Degree: 1 << 62},
	} {
		body, _ := json.Marshal(map[string]any{"datasets": []DatasetSpec{spec}})
		resp, err := http.Post(ts.URL+"/control/config", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %+v: status %d (%s), want 400", spec, resp.StatusCode, msg)
		}
	}
	if got := get("/datasets"); got != catalog {
		t.Errorf("/datasets changed:\n%s\nwant\n%s", got, catalog)
	}
	if status, env := postQuery(t, ts, map[string]any{
		"dataset": "demo", "op": "aggregate", "agg": "sum", "column": "amount",
	}); status != http.StatusOK {
		t.Fatalf("query after the refusals: status %d, %s", status, env["error"])
	}
}

// getBody GETs path and returns the response body.
func getBody(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestControlAppliesAllOrNothing: a /control/config POST whose config is
// valid but whose dataset list fails — on a name the catalog holds, or on
// a spec that cannot be built after one that was — is a 400 that leaves
// the config, the catalog, the snapshot version, simulated memory and the
// array registry as they were. The same request without the failing spec
// applies both parts.
func TestControlAppliesAllOrNothing(t *testing.T) {
	srv, ts := newTestServer(t, DefaultConfig())
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/control/config", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	const (
		cfg   = `"config":{"max_in_flight":9,"max_queue":64,"queue_timeout_ms":2000,"max_priority":100}`
		extra = `{"name":"extra","rows":1000,"seed":3}`
	)
	cfgBefore, catalog := srv.Config(), getBody(t, ts, "/datasets")
	version := srv.snap.Load().version
	used, arrays := srv.rt.Memory().TotalUsedBytes(), srv.reg.Len()
	for _, failing := range []string{
		`{"name":"demo","rows":10}`,
		`{"name":"big","rows":1099511627776}`,
		`{"name":"extra","rows":10}`,
	} {
		body := `{` + cfg + `,"datasets":[` + extra + `,` + failing + `]}`
		if code, msg := post(body); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", body, code, msg)
		}
		if got := srv.Config(); got != cfgBefore {
			t.Errorf("%s: config changed to %+v", failing, got)
		}
		if got := getBody(t, ts, "/datasets"); got != catalog {
			t.Errorf("%s: /datasets changed:\n%s\nwant\n%s", failing, got, catalog)
		}
		if got := srv.snap.Load().version; got != version {
			t.Errorf("%s: snapshot version %d, want %d", failing, got, version)
		}
		if got := srv.rt.Memory().TotalUsedBytes(); got != used {
			t.Errorf("%s: %d bytes of simulated memory in use, %d before", failing, got, used)
		}
		if got := srv.reg.Len(); got != arrays {
			t.Errorf("%s: %d registry entries, %d before", failing, got, arrays)
		}
	}

	if code, msg := post(`{` + cfg + `,"datasets":[` + extra + `]}`); code != http.StatusOK {
		t.Fatalf("status %d (%s), want 200", code, msg)
	}
	if got := srv.Config().MaxInFlight; got != 9 {
		t.Errorf("max_in_flight = %d after the accepted request, want 9", got)
	}
	if _, err := srv.Dataset("extra"); err != nil {
		t.Error(err)
	}
	if got := srv.snap.Load().version; got != version+1 {
		t.Errorf("snapshot version %d after one accepted request, want %d", got, version+1)
	}
}
