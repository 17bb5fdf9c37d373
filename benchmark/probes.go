package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"smartarrays"
	"smartarrays/internal/analytics"
	"smartarrays/internal/bitpack"
	"smartarrays/internal/colstore"
	"smartarrays/internal/core"
	"smartarrays/internal/encoding"
	"smartarrays/internal/memsim"
	"smartarrays/internal/queryd/plan"
	"smartarrays/internal/rts"
)

// Probe sizing. Read kernels run over 4 M elements (32 MB plain, beyond
// any cache level the serving path enjoys) and report the median of seven
// repetitions; write-path probes cost tens of nanoseconds per element, so
// they take 1 M elements and three repetitions to keep a traced run inside
// the benchmark's time budget.
const (
	probeElems      = 1 << 22
	probeReps       = 7
	writeProbeElems = 1 << 20
	writeProbeReps  = 3
	dispatchLoops   = 200  // empty loops per dispatch repetition
	handlerCalls    = 2000 // in-process handler calls per hit measurement
	handlerMisses   = 200  // distinct selective plans per miss measurement
)

// medianSeconds runs fn reps times and returns the median duration.
func medianSeconds(reps int, fn func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		fn()
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}

func nsPerElem(seconds float64, elems int) float64 { return seconds * 1e9 / float64(elems) }

// probeValues returns n seeded values below 2^bits.
func probeValues(seed uint64, n int, bits uint) []uint64 {
	vals := make([]uint64, n)
	mask := ^uint64(0)
	if bits < 64 {
		mask = 1<<bits - 1
	}
	for i := range vals {
		vals[i] = splitmix64(seed+uint64(i)) & mask
	}
	return vals
}

// codecShape returns n values of the shape each encoding is selected for.
func codecShape(kind encoding.Kind, seed uint64, n int) []uint64 {
	vals := make([]uint64, n)
	for i := range vals {
		r := splitmix64(seed + uint64(i))
		switch kind {
		case encoding.Plain: // incompressible
			vals[i] = r
		case encoding.BitPacked: // uniform 16-bit
			vals[i] = r & 0xffff
		case encoding.Dict: // sixteen large distinct values
			vals[i] = splitmix64(r&15) >> 8
		case encoding.RLE: // runs of 1024
			vals[i] = splitmix64(seed+uint64(i>>10)) & 0xffff
		case encoding.Delta: // ascending with small steps
			vals[i] = uint64(i)*4 + r&3
		default: // FoR: a narrow band far from zero
			vals[i] = 1<<40 + r&0xfff
		}
	}
	return vals
}

// runProbes measures every probe metric of the catalogue. loc supplies the
// served dataset and the scheduler engine; everything else is built here
// from seed.
func runProbes(seed uint64, loc *local) (map[string]float64, error) {
	m := map[string]float64{}
	n := probeElems
	chunks := uint64(n / bitpack.ChunkSize)

	// host: the roofline normalisers, plain Go over plain slices.
	a, b, c := probeValues(seed, n, 64), probeValues(seed+1, n, 64), probeValues(seed+2, n, 64)
	m["host.sum64_gbps"] = float64(8*n) / 1e9 / medianSeconds(probeReps, func() {
		var s uint64
		for _, v := range a {
			s += v
		}
		sink = s
	})
	m["host.triad_gbps"] = float64(24*n) / 1e9 / medianSeconds(probeReps, func() {
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
	})

	// bitpack: the fused kernels at each width class.
	for _, w := range probeWidths {
		codec := bitpack.MustNew(w)
		vals := probeValues(seed+uint64(w), n, w)
		data := codec.PackSlice(vals)
		threshold := codec.Mask() / 2
		m[fmt.Sprintf("bitpack.sum_ns_per_elem.w%d", w)] = nsPerElem(medianSeconds(probeReps, func() {
			sink = codec.SumChunks(data, 0, chunks)
		}), n)
		m[fmt.Sprintf("bitpack.cmpmask_ns_per_elem.w%d", w)] = nsPerElem(medianSeconds(probeReps, func() {
			var acc uint64
			for ch := uint64(0); ch < chunks; ch++ {
				acc ^= codec.CmpMaskChunk(data, ch, bitpack.CmpLt, threshold)
			}
			sink = acc
		}), n)
		if w == 16 {
			idx := probeValues(seed+99, n, 22) // n == 1<<22
			out := make([]uint64, n)
			m["bitpack.gather_ns_per_elem.w16"] = nsPerElem(medianSeconds(probeReps, func() {
				codec.Gather(data, idx, out)
			}), n)
		}
	}

	// encoding: each codec through the ChunkCodec interface, plus its
	// write path and exact density.
	for i, kind := range encoding.Kinds {
		name := codecNames[i]
		vals := codecShape(kind, seed, n)
		enc, err := encoding.Build(kind, vals)
		if err != nil {
			return nil, err
		}
		cc, ok := enc.(encoding.ChunkCodec)
		if !ok {
			return nil, fmt.Errorf("encoding %v has no chunk kernels", kind)
		}
		threshold := vals[n/2]
		m["encoding.sum_ns_per_elem."+name] = nsPerElem(medianSeconds(probeReps, func() {
			sink = cc.SumChunks(0, chunks)
		}), n)
		m["encoding.cmpmask_ns_per_elem."+name] = nsPerElem(medianSeconds(probeReps, func() {
			var acc uint64
			for ch := uint64(0); ch < chunks; ch++ {
				acc ^= cc.CmpMaskChunk(ch, bitpack.CmpLt, threshold)
			}
			sink = acc
		}), n)
		m["encoding.bytes_per_elem."+name] = float64(enc.PayloadBytes()) / float64(n)
		small := vals[:writeProbeElems]
		m["encoding.build_ns_per_elem."+name] = nsPerElem(medianSeconds(writeProbeReps, func() {
			e, _ := encoding.Build(kind, small)
			sink = e.Length()
		}), writeProbeElems)
	}

	if err := probeCore(seed, m); err != nil {
		return nil, err
	}
	if err := probeRTS(seed, loc, m); err != nil {
		return nil, err
	}
	if err := probeColstore(seed, loc, m); err != nil {
		return nil, err
	}
	if err := probeAnalytics(loc, m); err != nil {
		return nil, err
	}
	probeQueryd(seed, loc, m)
	return m, nil
}

// probeCore times the range operations on a 16-bit packed array with no
// zone index, so the kernels cannot be skipped, and the zone walk on a
// sorted one where all but one chunk is skipped.
func probeCore(seed uint64, m map[string]float64) error {
	n := probeElems
	rows := uint64(n)
	mem := rts.New(smartarrays.SmallMachine()).Memory()
	vals := probeValues(seed+7, n, 16)
	arr, err := core.AllocateFor(mem, vals, memsim.Interleaved, 0)
	if err != nil {
		return err
	}
	defer arr.Free()
	_, nMasks := core.MaskChunks(0, rows)
	masks := make([]uint64, nMasks)

	m["core.reduce_ns_per_elem"] = nsPerElem(medianSeconds(probeReps, func() {
		sink = core.ReduceRange(arr, 0, 0, rows, core.ReduceSum)
	}), n)
	m["core.mask_ns_per_elem"] = nsPerElem(medianSeconds(probeReps, func() {
		core.MaskRange(arr, 0, 0, rows, bitpack.CmpLt, 1<<15, masks)
	}), n)
	for _, sel := range []struct {
		name      string
		threshold uint64
	}{{"sel01", 655}, {"sel50", 1 << 15}} {
		core.MaskRange(arr, 0, 0, rows, bitpack.CmpLt, sel.threshold, masks)
		m["core.masked_reduce_ns_per_elem."+sel.name] = nsPerElem(medianSeconds(probeReps, func() {
			sink = core.ReduceRangeMasked(arr, 0, 0, rows, core.ReduceSum, masks)
		}), n)
	}
	idx := probeValues(seed+8, n, 22)
	out := make([]uint64, n)
	m["core.gather_ns_per_elem"] = nsPerElem(medianSeconds(probeReps, func() {
		core.Gather(arr, 0, idx, out)
	}), n)

	sorted := make([]uint64, n)
	for i := range sorted {
		sorted[i] = uint64(i)
	}
	ids, err := core.AllocateFor(mem, sorted, memsim.Interleaved, 0)
	if err != nil {
		return err
	}
	defer ids.Free()
	ids.BuildZoneIndex()
	const walks = 100
	m["core.zone_prune_ns_per_chunk"] = medianSeconds(probeReps, func() {
		for i := 0; i < walks; i++ {
			core.MaskRange(ids, 0, 0, rows, bitpack.CmpLt, bitpack.ChunkSize/2, masks)
		}
	}) * 1e9 / walks / float64(nMasks)

	small := vals[:writeProbeElems]
	var allocErr error
	m["core.allocate_ns_per_elem"] = nsPerElem(medianSeconds(writeProbeReps, func() {
		a, err := core.AllocateFor(mem, small, memsim.Interleaved, 0)
		if err != nil {
			allocErr = err
			return
		}
		a.Free()
	}), writeProbeElems)
	if allocErr != nil {
		return allocErr
	}
	w, err := core.AllocateFor(mem, small, memsim.Interleaved, 0)
	if err != nil {
		return err
	}
	defer w.Free()
	var reErr error
	m["core.reencode_ns_per_elem"] = nsPerElem(medianSeconds(writeProbeReps, func() {
		for _, kind := range []encoding.Kind{encoding.FoR, encoding.BitPacked} {
			if _, err := w.Reencode(kind, 0); err != nil {
				reErr = err
			}
		}
	}), 2*writeProbeElems)
	return reErr
}

// probeRTS times empty-body loops on both engines, and the parallel sum
// whose ratio to host.sum64_gbps is the runtime's parallel efficiency.
func probeRTS(seed uint64, loc *local, m map[string]float64) error {
	sys := smartarrays.NewSystem(smartarrays.SmallMachine())
	engines := []struct {
		name string
		rt   *rts.Runtime
	}{{"lib", sys.Runtime()}, {"sched", loc.srv.Runtime()}}
	for _, e := range engines {
		for _, batches := range []uint64{1, 64} {
			m[fmt.Sprintf("rts.dispatch_us.%s_%dbatch", e.name, batches)] = medianSeconds(probeReps, func() {
				for i := 0; i < dispatchLoops; i++ {
					e.rt.ParallelFor(0, batches, 1, func(*rts.Worker, uint64, uint64) {})
				}
			}) * 1e6 / dispatchLoops
		}
	}
	n := probeElems
	arr, err := core.AllocateFor(sys.Runtime().Memory(), probeValues(seed+9, n, 64), memsim.Interleaved, 0)
	if err != nil {
		return err
	}
	defer arr.Free()
	m["rts.reduce_sum_gbps"] = float64(8*n) / 1e9 / medianSeconds(probeReps, func() {
		sink = sys.Runtime().ReduceSum(0, uint64(n), 0, func(w *rts.Worker, lo, hi uint64) uint64 {
			return core.ReduceRange(arr, w.Socket, lo, hi, core.ReduceSum)
		})
	})
	return nil
}

// probeColstore times the table operators on the served dataset through
// the scheduler engine, and the column write path on a fresh table.
func probeColstore(seed uint64, loc *local, m map[string]float64) error {
	rt := loc.srv.Runtime()
	tbl := loc.ds.Table.WithRuntime(rt)
	rows := float64(tbl.Rows())
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	mrows := func(reps int, perCall float64, fn func() error) float64 {
		return perCall / 1e6 / medianSeconds(reps, func() { note(fn()) })
	}
	preds := []colstore.Pred{{Column: "amount", Op: colstore.Lt, Value: 1 << 15}, {Column: "flag", Op: colstore.Eq, Value: 1}}
	for p := 0; p <= 2; p++ {
		m[fmt.Sprintf("colstore.agg_mrows_per_s.p%d", p)] = mrows(probeReps, rows, func() error {
			_, err := tbl.Aggregate(colstore.Sum, "amount", preds[:p]...)
			return err
		})
	}
	for _, g := range []struct{ name, key string }{{"dense", "region"}, {"sparse", "amount"}} {
		m["colstore.groupby_mrows_per_s."+g.name] = mrows(writeProbeReps, rows, func() error {
			_, err := tbl.GroupBy(g.key, colstore.Sum, "id")
			return err
		})
	}
	queries := make([]colstore.ScanQuery, 4)
	for i := range queries {
		queries[i] = colstore.ScanQuery{Agg: colstore.Sum, Column: "amount", Preds: []colstore.Pred{{Column: "amount", Op: colstore.Lt, Value: uint64(i+1) << 13}}}
	}
	m["colstore.multiscan_mrows_per_s.q4"] = mrows(probeReps, 4*rows, func() error {
		_, err := tbl.MultiScan(queries)
		return err
	})
	const prunedCalls = 100
	m["colstore.pruned_agg_us"] = medianSeconds(probeReps, func() {
		for i := uint64(0); i < prunedCalls; i++ {
			lo := splitmix64(seed+i) % (datasetRows - 1024)
			_, err := tbl.Aggregate(colstore.Sum, "amount",
				colstore.Pred{Column: "id", Op: colstore.Ge, Value: lo}, colstore.Pred{Column: "id", Op: colstore.Lt, Value: lo + 1024})
			note(err)
		}
	}) * 1e6 / prunedCalls
	m["colstore.payload_bytes_per_row"] = float64(tbl.PayloadBytes()) / rows

	// Writes go through the library engine, as dataset builds do.
	wrt := rts.New(smartarrays.SmallMachine())
	vals := probeValues(seed+10, writeProbeElems, 16)
	var fresh *colstore.Table
	m["colstore.add_column_mrows_per_s"] = mrows(writeProbeReps, writeProbeElems, func() error {
		if fresh != nil {
			fresh.Free()
		}
		var err error
		if fresh, err = colstore.NewTable(wrt, writeProbeElems); err != nil {
			return err
		}
		_, err = fresh.AddColumn("c", vals, colstore.Options{Placement: memsim.Interleaved})
		return err
	})
	if firstErr != nil {
		return firstErr
	}
	defer fresh.Free()
	m["colstore.reencode_mrows_per_s"] = mrows(writeProbeReps, 2*writeProbeElems, func() error {
		for _, kind := range []encoding.Kind{encoding.FoR, encoding.BitPacked} {
			if _, err := fresh.ReencodeColumn("c", kind, 0); err != nil {
				return err
			}
		}
		return nil
	})
	return firstErr
}

// probeAnalytics times the graph kernels on the served graph through the
// scheduler engine.
func probeAnalytics(loc *local, m map[string]float64) error {
	rt, g := loc.srv.Runtime(), loc.ds.Graph
	edges := float64(g.NumEdges)
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	cfg := analytics.DefaultPageRankConfig()
	cfg.MaxIters = rankIters
	iters := 0
	secs := medianSeconds(writeProbeReps, func() {
		var err error
		_, iters, _, err = analytics.PageRank(rt, g, cfg)
		note(err)
	})
	m["analytics.pagerank_medges_per_s"] = float64(iters) * edges / 1e6 / secs
	m["analytics.degree_medges_per_s"] = edges / 1e6 / medianSeconds(probeReps, func() {
		out, _, err := analytics.DegreeCentrality(rt, g)
		note(err)
		if err == nil {
			out.Free()
		}
	})
	var hub, hubDeg uint64
	for v := uint64(0); v < g.NumVertices; v++ {
		if d := g.OutDegree(0, v); d > hubDeg {
			hub, hubDeg = v, d
		}
	}
	m["analytics.bfs_medges_per_s"] = edges / 1e6 / medianSeconds(probeReps, func() {
		_, _, _, err := analytics.BFS(rt, g, hub)
		note(err)
	})
	return firstErr
}

// probeQueryd drives the in-process handler: parse cost, the cache-hit
// path, and what a hit and a miss allocate.
func probeQueryd(seed uint64, loc *local, m map[string]float64) {
	body := scanUniqueBody(seed, 3) // two predicates
	const parses = 1000
	m["queryd.plan_parse_us"] = medianSeconds(probeReps, func() {
		for i := 0; i < parses; i++ {
			p, _ := plan.Parse(body)
			sink += uint64(len(p.Preds))
		}
	}) * 1e6 / parses

	h := loc.srv.Handler()
	// serve builds every request and recorder first, so that only
	// ServeHTTP is between the two readings.
	serve := func(bodies []string) (seconds, allocs, bytes float64) {
		reqs := make([]*http.Request, len(bodies))
		recs := make([]*httptest.ResponseRecorder, len(bodies))
		for i, b := range bodies {
			reqs[i] = httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(b))
			recs[i] = httptest.NewRecorder()
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i := range reqs {
			h.ServeHTTP(recs[i], reqs[i])
		}
		seconds = time.Since(t0).Seconds()
		runtime.ReadMemStats(&after)
		k := float64(len(bodies))
		return seconds / k, float64(after.Mallocs-before.Mallocs) / k, float64(after.TotalAlloc-before.TotalAlloc) / k
	}
	// Selective plans keep a miss cheap enough to repeat; numbers beyond
	// 1<<21 are never sent to a child server's stream within one run.
	hit := make([]string, handlerCalls)
	for i := range hit {
		hit[i] = string(scanSelectiveBody(seed, 1<<21))
	}
	serve(hit[:1]) // fill the cache entry
	var hitUS []float64
	for r := 0; r < writeProbeReps; r++ {
		secs, allocs, bytes := serve(hit)
		hitUS = append(hitUS, secs*1e6)
		m["queryd.allocs_per_query.hit"], m["queryd.bytes_per_query.hit"] = allocs, bytes
	}
	m["queryd.handle_hit_us"] = median(hitUS)
	miss := make([]string, handlerMisses)
	for i := range miss {
		miss[i] = string(scanSelectiveBody(seed, 1<<21+1+uint64(i)))
	}
	_, m["queryd.allocs_per_query.miss"], m["queryd.bytes_per_query.miss"] = serve(miss)
}

// ratiosToHost expresses every ns/elem probe as a multiple of the same
// run's plain 64-bit sum, the form in which kernels compare across hosts.
func ratiosToHost(m map[string]float64) map[string]float64 {
	hostNS := 8 / m["host.sum64_gbps"] // ns per 8-byte element
	out := map[string]float64{}
	for _, d := range probeMetrics() {
		if d.Unit == "ns/elem" && hostNS > 0 {
			out[d.Name] = m[d.Name] / hostNS
		}
	}
	return out
}
