package bench

import (
	"bytes"
	"strings"
	"testing"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/obs"
)

func testOpts() Options {
	return Options{Elements: 1 << 13, GraphVertices: 400, Verify: true}
}

func findAgg(t *testing.T, rows []AggResult, spec *machine.Spec, lang Lang, bits uint, p memsim.Placement) AggResult {
	t.Helper()
	for _, r := range rows {
		if r.Machine.Name == spec.Name && r.Lang == lang && r.Bits == bits && r.Placement == p {
			return r
		}
	}
	t.Fatalf("row not found: %s %v bits=%d %v", spec.Name, lang, bits, p)
	return AggResult{}
}

func TestFigure2ShapeAndAnnotations(t *testing.T) {
	rows, err := RunFigure2(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for i, r := range rows {
		if !r.Verified {
			t.Errorf("row %d not verified", i)
		}
	}
	single, inter, repl, replC := rows[0], rows[1], rows[2], rows[3]
	if !(single.TimeMs > inter.TimeMs && inter.TimeMs > repl.TimeMs && repl.TimeMs > replC.TimeMs) {
		t.Errorf("Figure 2 ordering violated: %.0f / %.0f / %.0f / %.0f ms",
			single.TimeMs, inter.TimeMs, repl.TimeMs, replC.TimeMs)
	}
	// Paper annotations: 201/43 -> 122/71 -> 109/80 -> 62/73.
	within := func(name string, got, want, tol float64) {
		if got < want*(1-tol) || got > want*(1+tol) {
			t.Errorf("%s = %.0f, want about %.0f", name, got, want)
		}
	}
	within("single time", single.TimeMs, 201, 0.25)
	within("interleaved time", inter.TimeMs, 122, 0.25)
	within("replicated time", repl.TimeMs, 109, 0.25)
	within("repl+compressed time", replC.TimeMs, 62, 0.25)
	within("single bandwidth", single.BandwidthGBs, 43, 0.25)
}

// TestAggregationRecordsCounters checks the counter snapshot a recorded
// aggregation cell emits: both arrays' payload read once, summed over
// sockets, and a non-zero instruction count, on both language paths.
func TestAggregationRecordsCounters(t *testing.T) {
	const n, bits = 1 << 13, 33
	want := 2 * bitpack.MustNew(bits).CompressedBytes(n)
	for _, lang := range []Lang{LangCPP, LangJava} {
		rec := obs.NewRecorder(0)
		_, err := RunAggregation(AggConfig{Machine: machine.X52Large(), Lang: lang, Bits: bits, Placement: memsim.Interleaved},
			Options{Elements: n, Verify: true, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		var read, instr uint64
		events := 0
		for _, ev := range rec.Events() {
			if ev.Kind != obs.KindCounters {
				continue
			}
			events++
			for _, s := range ev.Counters.Sockets {
				read += s.LocalReadBytes + s.RemoteReadBytes
				instr += s.Instructions
			}
		}
		if events != 1 || read != want || instr == 0 {
			t.Errorf("%v: %d counters events, %d bytes read (want %d), %d instructions", lang, events, read, want, instr)
		}
	}
}

func TestFigure10SmallMachineShape(t *testing.T) {
	// Run the full sweep at tiny real scale and check the 8-core claims.
	rows, err := RunFigure10(Options{Elements: 1 << 12, GraphVertices: 100, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*2*3*7 {
		t.Fatalf("rows = %d, want 84", len(rows))
	}
	small := machine.X52Small()
	for _, lang := range []Lang{LangCPP, LangJava} {
		u64single := findAgg(t, rows, small, lang, 64, memsim.OSDefault)
		u64inter := findAgg(t, rows, small, lang, 64, memsim.Interleaved)
		u64repl := findAgg(t, rows, small, lang, 64, memsim.Replicated)
		c33inter := findAgg(t, rows, small, lang, 33, memsim.Interleaved)
		c33repl := findAgg(t, rows, small, lang, 33, memsim.Replicated)

		if !(u64inter.TimeMs > u64single.TimeMs) {
			t.Errorf("%v: 8-core interleaved (%.0f) must be worse than single socket (%.0f)",
				lang, u64inter.TimeMs, u64single.TimeMs)
		}
		if ratio := u64single.TimeMs / u64repl.TimeMs; ratio < 1.7 {
			t.Errorf("%v: replication speedup = %.2f, want ~2x", lang, ratio)
		}
		if !(c33inter.TimeMs < u64inter.TimeMs) {
			t.Errorf("%v: compression must help interleaved on 8-core", lang)
		}
		if !(c33repl.TimeMs > u64repl.TimeMs) {
			t.Errorf("%v: compression must hurt replicated on 8-core", lang)
		}
		// Instruction panel: compressed scans execute many more
		// instructions.
		if c33repl.InstructionsG <= u64repl.InstructionsG {
			t.Errorf("%v: compressed instructions must exceed uncompressed", lang)
		}
	}
}

func TestFigure10LargeMachineShape(t *testing.T) {
	rows, err := RunFigure10(Options{Elements: 1 << 12, GraphVertices: 100, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	large := machine.X52Large()
	u64single := findAgg(t, rows, large, LangCPP, 64, memsim.OSDefault)
	u64inter := findAgg(t, rows, large, LangCPP, 64, memsim.Interleaved)
	u64repl := findAgg(t, rows, large, LangCPP, 64, memsim.Replicated)
	c10single := findAgg(t, rows, large, LangCPP, 10, memsim.OSDefault)

	if !(u64inter.TimeMs < u64single.TimeMs) {
		t.Error("18-core: interleaving must beat single socket")
	}
	if !(u64repl.TimeMs < u64inter.TimeMs) {
		t.Error("18-core: replication must (slightly) beat interleaving")
	}
	// "Bit compression can reduce the time by up to 4x for the default OS
	// data placement."
	if ratio := u64single.TimeMs / c10single.TimeMs; ratio < 3 || ratio > 5.5 {
		t.Errorf("18-core 10-bit OS-default speedup = %.1fx, want ~4x", ratio)
	}
	// Compression helps every placement on the 18-core machine.
	for _, p := range Figure10Placements {
		u := findAgg(t, rows, large, LangCPP, 64, p)
		c := findAgg(t, rows, large, LangCPP, 33, p)
		if !(c.TimeMs < u.TimeMs) {
			t.Errorf("18-core %v: 33-bit (%.0f ms) must beat 64-bit (%.0f ms)", p, c.TimeMs, u.TimeMs)
		}
	}
}

func TestFigure10JavaCompetitiveWithCPP(t *testing.T) {
	rows, err := RunFigure10(Options{Elements: 1 << 12, GraphVertices: 100, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	// "The performance of the Java application is generally as good as
	// that of the C++ application": within ~15% in the model.
	for _, spec := range Machines() {
		for _, p := range Figure10Placements {
			for _, bits := range Figure10Bits {
				cpp := findAgg(t, rows, spec, LangCPP, bits, p)
				java := findAgg(t, rows, spec, LangJava, bits, p)
				if java.TimeMs > cpp.TimeMs*1.15 || java.TimeMs < cpp.TimeMs*0.99 {
					t.Errorf("%s %v bits=%d: Java %.0f ms vs C++ %.0f ms",
						spec.Name, p, bits, java.TimeMs, cpp.TimeMs)
				}
			}
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	// Each path is one wall-clock pass of about a millisecond, so a single
	// GC pause or preemption can swamp it. Keep each path's fastest of a
	// few runs: the figure contrasts steady-state per-element costs.
	var rows []InteropResult
	byName := map[string]InteropResult{}
	for run := 0; run < 3; run++ {
		var err error
		rows, err = RunFigure3(Options{Elements: 1 << 15, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 5 {
			t.Fatalf("rows = %d, want 5", len(rows))
		}
		for _, r := range rows {
			if best, ok := byName[r.Path]; !ok || r.NsPerElem < best.NsPerElem {
				byName[r.Path] = r
			}
		}
	}
	jni := byName["Java with JNI"]
	smart := byName["Java with smart arrays"]
	unsafe := byName["Java with unsafe"]
	java := byName["Java"]

	// The figure's core contrast: JNI is several times slower than every
	// other guest path.
	for _, other := range []InteropResult{java, unsafe, smart} {
		if jni.NsPerElem < 2*other.NsPerElem {
			t.Errorf("JNI (%.1f ns) should be >=2x slower than %s (%.1f ns)",
				jni.NsPerElem, other.Path, other.NsPerElem)
		}
	}
	// Smart arrays keep pace with unsafe and plain guest arrays.
	if smart.NsPerElem > 3*unsafe.NsPerElem {
		t.Errorf("smart arrays (%.1f ns) should be competitive with unsafe (%.1f ns)",
			smart.NsPerElem, unsafe.NsPerElem)
	}
	// Annotation flags: only JNI and smart arrays are interoperable; only
	// they keep the native smart functionality.
	if !jni.Interoperable || !smart.Interoperable || unsafe.Interoperable || java.Interoperable {
		t.Error("interoperability annotations wrong")
	}
	if !smart.SmartFunctionality || unsafe.SmartFunctionality {
		t.Error("smart-functionality annotations wrong")
	}
	if jni.BoundaryCrossings == 0 {
		t.Error("JNI crossings not recorded")
	}
	// All paths computed the same sum.
	for _, r := range rows {
		if r.Sum != rows[0].Sum {
			t.Errorf("%s sum %d != %d", r.Path, r.Sum, rows[0].Sum)
		}
	}
}

func TestFigure1Shape(t *testing.T) {
	orig, repl, err := RunFigure1(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Verified || !repl.Verified {
		t.Error("runs not verified")
	}
	// ">2x improvement in performance and memory bandwidth" on the 8-core
	// machine.
	if ratio := orig.TimeMs / repl.TimeMs; ratio < 2 {
		t.Errorf("Figure 1 speedup = %.2fx, want > 2x", ratio)
	}
	if ratio := repl.BandwidthGBs / orig.BandwidthGBs; ratio < 1.5 {
		t.Errorf("Figure 1 bandwidth ratio = %.2fx, want > 1.5x", ratio)
	}
}

func TestFigure11Shape(t *testing.T) {
	rows, err := RunFigure11(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	find := func(machineName, label, comp string) GraphResult {
		for _, r := range rows {
			if r.Machine == machineName && r.Label == label && r.Compression == comp {
				return r
			}
		}
		t.Fatalf("row not found: %s %s %s", machineName, label, comp)
		return GraphResult{}
	}
	small, large := machine.X52Small().Name, machine.X52Large().Name

	// 8-core: replication outperforms the other placements.
	for _, other := range []string{"original", "single socket", "interleaved"} {
		if !(find(small, "replicated", "U").TimeMs < find(small, other, "U").TimeMs) {
			t.Errorf("8-core replicated must beat %s", other)
		}
	}
	// 8-core with replication: compression slightly worse than
	// uncompressed.
	if !(find(small, "replicated", "33").TimeMs >= find(small, "replicated", "U").TimeMs) {
		t.Error("8-core replicated: 33-bit should not beat uncompressed")
	}
	// 8-core: compression boosts the other placements.
	if !(find(small, "interleaved", "33").TimeMs < find(small, "interleaved", "U").TimeMs) {
		t.Error("8-core interleaved: 33-bit must help")
	}
	// 18-core: interleaving beats single socket; replication slightly
	// better; compression improves further.
	if !(find(large, "interleaved", "U").TimeMs < find(large, "single socket", "U").TimeMs) {
		t.Error("18-core: interleaved must beat single socket")
	}
	if !(find(large, "replicated", "U").TimeMs <= find(large, "interleaved", "U").TimeMs) {
		t.Error("18-core: replicated must be at least as good as interleaved")
	}
	if !(find(large, "replicated", "33").TimeMs < find(large, "replicated", "U").TimeMs) {
		t.Error("18-core: compression must improve replicated degree centrality")
	}
}

func TestFigure12Shape(t *testing.T) {
	rows, err := RunFigure12(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	find := func(machineName, label, comp string) GraphResult {
		for _, r := range rows {
			if r.Machine == machineName && r.Label == label && r.Compression == comp {
				return r
			}
		}
		t.Fatalf("row not found: %s %s %s", machineName, label, comp)
		return GraphResult{}
	}
	small, large := machine.X52Small().Name, machine.X52Large().Name

	for _, r := range rows {
		if !r.Verified {
			t.Fatalf("unverified row: %+v", r.GraphVariant)
		}
	}
	// 8-core: single socket beats original/interleaved; replication up to
	// 2x better than the others.
	if !(find(small, "single socket", "U").TimeMs < find(small, "interleaved", "U").TimeMs) {
		t.Error("8-core: single socket must beat interleaved for PageRank")
	}
	if ratio := find(small, "interleaved", "U").TimeMs / find(small, "replicated", "U").TimeMs; ratio < 1.8 {
		t.Errorf("8-core: replication improvement = %.2fx, want ~2x+", ratio)
	}
	// 18-core: replication only marginally better than interleaving.
	interL := find(large, "interleaved", "U").TimeMs
	replL := find(large, "replicated", "U").TimeMs
	if !(replL <= interL) || replL < interL*0.7 {
		t.Errorf("18-core: replication should be marginally better: %.0f vs %.0f ms", replL, interL)
	}
	// "V" has no significant impact (edges dominate).
	u := find(large, "replicated", "U").TimeMs
	v := find(large, "replicated", "V").TimeMs
	if v > u*1.1 || v < u*0.8 {
		t.Errorf("18-core: V variant should be close to U: %.0f vs %.0f ms", v, u)
	}
	// "V+E" reduces memory space by ~21%.
	uMem := find(small, "replicated", "U").MemoryBytes
	veMem := find(small, "replicated", "V+E").MemoryBytes
	saving := 1 - float64(veMem)/float64(uMem)
	if saving < 0.17 || saving > 0.25 {
		t.Errorf("V+E memory saving = %.1f%%, want ~21%%", saving*100)
	}
}

func TestAdaptivityReport(t *testing.T) {
	rep := RunAdaptivity(nil)
	if rep.Cases == 0 {
		t.Fatal("no cases")
	}
	accuracy := float64(rep.Correct) / float64(rep.Cases)
	// Paper: 94% of cases correct, within 0.2% of optimum on average,
	// 11.7% better than the best static choice. Our grid differs, so
	// assert the qualitative targets.
	if accuracy < 0.85 {
		t.Errorf("adaptivity accuracy = %.0f%%, want >= 85%%", accuracy*100)
	}
	if rep.VsBestStaticPct < 0 {
		t.Errorf("adaptive policy must not lose to the best static configuration (%.1f%%)", rep.VsBestStaticPct)
	}
	if rep.StaticLabel == "" {
		t.Error("no static baseline identified")
	}
	// Step-level accuracy (paper: step 1 62/64 = 97%, step 2 86/96 = 90%).
	if rep.Step1Cases == 0 || rep.Step2Cases == 0 {
		t.Fatal("step statistics missing")
	}
	if acc := float64(rep.Step1Correct) / float64(rep.Step1Cases); acc < 0.85 {
		t.Errorf("step 1 accuracy = %.0f%%, want >= 85%%", acc*100)
	}
	if acc := float64(rep.Step2Correct) / float64(rep.Step2Cases); acc < 0.85 {
		t.Errorf("step 2 accuracy = %.0f%%, want >= 85%%", acc*100)
	}
}

func TestPrintersProduceTables(t *testing.T) {
	var buf bytes.Buffer
	rows, err := RunFigure2(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	PrintAggTable(&buf, "Figure 2", rows)
	if !strings.Contains(buf.String(), "replicated") {
		t.Error("agg table missing placements")
	}

	buf.Reset()
	PrintTable1(&buf)
	out := buf.String()
	for _, want := range []string{"49.3 GB/s", "26.8 GB/s", "E5-2699v3"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}

	buf.Reset()
	PrintTable2(&buf)
	if !strings.Contains(buf.String(), "Replication") {
		t.Error("Table 2 missing rows")
	}

	buf.Reset()
	irows, err := RunFigure3(Options{Elements: 1 << 12, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	PrintInteropTable(&buf, irows)
	if !strings.Contains(buf.String(), "Java with JNI") {
		t.Error("interop table missing rows")
	}

	buf.Reset()
	PrintAdaptReport(&buf, RunAdaptivity(nil), true)
	if !strings.Contains(buf.String(), "correct configuration") {
		t.Error("adapt report missing summary")
	}
}
