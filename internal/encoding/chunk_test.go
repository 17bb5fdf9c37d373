package encoding

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"smartarrays/internal/bitpack"
)

var chunkTestCmps = []bitpack.Cmp{
	bitpack.CmpEq, bitpack.CmpNe, bitpack.CmpLt,
	bitpack.CmpLe, bitpack.CmpGt, bitpack.CmpGe,
}

// chunkTestValues builds a width-w dataset with a bit of everything: runs,
// jumps, boundary values, and noise. Length is deliberately not a chunk
// multiple so the partial-tail paths get exercised.
func chunkTestValues(w uint, rng *rand.Rand) []uint64 {
	max := bitpack.MustNew(w).MaxValue()
	n := 5*bitpack.ChunkSize + rng.Intn(2*bitpack.ChunkSize) + 1
	values := make([]uint64, n)
	i := 0
	for i < n {
		var v uint64
		switch rng.Intn(4) {
		case 0:
			v = 0
		case 1:
			v = max
		case 2:
			v = rng.Uint64() & max
		default:
			v = uint64(i) & max // locally increasing
		}
		runLen := 1
		if rng.Intn(2) == 0 {
			runLen += rng.Intn(40)
		}
		for ; runLen > 0 && i < n; runLen-- {
			values[i] = v
			i++
		}
	}
	return values
}

// checkChunkCodec pins every ChunkCodec entry point against the Get-based
// scalar reference on one dataset.
func checkChunkCodec(t *testing.T, cc ChunkCodec, values []uint64, rng *rand.Rand) {
	t.Helper()
	n := uint64(len(values))
	fullChunks := n / bitpack.ChunkSize
	allChunks := (n + bitpack.ChunkSize - 1) / bitpack.ChunkSize

	// DecodeChunk on every chunk, including the ragged tail (pad ignored).
	var buf [bitpack.ChunkSize]uint64
	for c := uint64(0); c < allChunks; c++ {
		cc.DecodeChunk(c, &buf)
		for i := uint64(0); i < bitpack.ChunkSize && c*bitpack.ChunkSize+i < n; i++ {
			if buf[i] != values[c*bitpack.ChunkSize+i] {
				t.Fatalf("DecodeChunk(%d)[%d] = %d, want %d", c, i, buf[i], values[c*bitpack.ChunkSize+i])
			}
		}
	}

	// Unmasked folds over a few full-chunk windows, empty window included.
	windows := [][2]uint64{{0, fullChunks}, {0, 0}}
	if fullChunks >= 2 {
		lo := uint64(rng.Intn(int(fullChunks)))
		hi := lo + 1 + uint64(rng.Intn(int(fullChunks-lo)))
		windows = append(windows, [2]uint64{lo, hi}, [2]uint64{fullChunks - 1, fullChunks})
	}
	thresholds := []uint64{0, ^uint64(0), values[rng.Intn(len(values))], values[0] + 1}
	for _, win := range windows {
		lo, hi := win[0]*bitpack.ChunkSize, win[1]*bitpack.ChunkSize
		checkFolds(t, cc, fmt.Sprint(win), win[0], win[1], nil, values[lo:hi], nil)
		if got, want := cc.SumChunks(win[0], win[1]), foldRef(FoldSum, values[lo:hi], nil); got != want {
			t.Fatalf("SumChunks%v = %d, want %d", win, got, want)
		}
		// A predicate count is the popcount of the window's masks.
		masks := make([]uint64, win[1]-win[0])
		for _, op := range chunkTestCmps {
			for _, thr := range thresholds {
				var count uint64
				for _, v := range values[lo:hi] {
					if op.Eval(v, thr) {
						count++
					}
				}
				cc.CmpMaskChunks(win[0], win[1], op, thr, masks, false)
				if got := bitpack.PopcountMasks(masks); got != count {
					t.Fatalf("PopcountMasks(CmpMaskChunks%v(%v, %d)) = %d, want %d", win, op, thr, got, count)
				}
			}
		}
	}

	// CmpMaskChunk on every chunk (tail pad bits ignored).
	for c := uint64(0); c < allChunks; c++ {
		for _, op := range chunkTestCmps {
			thr := thresholds[rng.Intn(len(thresholds))]
			got := cc.CmpMaskChunk(c, op, thr)
			for i := uint64(0); i < bitpack.ChunkSize && c*bitpack.ChunkSize+i < n; i++ {
				want := op.Eval(values[c*bitpack.ChunkSize+i], thr)
				if got>>i&1 == 1 != want {
					t.Fatalf("CmpMaskChunk(%d, %v, %d) bit %d = %v, want %v", c, op, thr, i, !want, want)
				}
			}
		}
	}

	// Masked folds over the whole array with random selections, clamped at
	// the tail the way core.MaskRange guarantees. Include all-zero and
	// all-ones masks to hit the identity paths.
	for trial := 0; trial < 3; trial++ {
		masks := make([]uint64, allChunks)
		for i := range masks {
			switch trial {
			case 0:
				masks[i] = 0
			case 1:
				masks[i] = ^uint64(0)
			default:
				masks[i] = rng.Uint64()
			}
		}
		if tail := n % bitpack.ChunkSize; tail != 0 {
			masks[allChunks-1] &= uint64(1)<<tail - 1
		}
		checkFolds(t, cc, fmt.Sprintf("trial %d", trial), 0, allChunks, masks, values, masks)
	}
	checkRangeKernels(t, cc, values, rng)
}

// foldOps lists every fold operator.
var foldOps = []FoldOp{FoldSum, FoldMax, FoldMin}

// foldRef is the scalar fold of values with op: every value when sel is
// nil, else the values whose bit in sel (bit i of sel[i/64]) is set.
func foldRef(op FoldOp, values, sel []uint64) uint64 {
	var sum, hi uint64
	lo := ^uint64(0)
	for i, v := range values {
		if sel == nil || sel[i/bitpack.ChunkSize]>>(i%bitpack.ChunkSize)&1 == 1 {
			sum, lo, hi = sum+v, min(lo, v), max(hi, v)
		}
	}
	return [...]uint64{FoldSum: sum, FoldMax: hi, FoldMin: lo}[op]
}

// checkFolds checks FoldChunks over chunks [chunkLo, chunkHi) under
// masks, for every operator, against foldRef of values under sel.
func checkFolds(t *testing.T, cc ChunkCodec, name string, chunkLo, chunkHi uint64, masks, values, sel []uint64) {
	t.Helper()
	for _, op := range foldOps {
		if got, want := cc.FoldChunks(op, chunkLo, chunkHi, masks), foldRef(op, values, sel); got != want {
			t.Fatalf("%v: FoldChunks(%v) %s = %d, want %d", cc.Kind(), op, name, got, want)
		}
	}
}

// checkRangeKernels pins the payload binding and the range entry points:
// a codec bound to a copy of its payload words reads the same values, and
// on it CmpMaskChunks (fill and AND) agrees with CmpMaskChunk chunk by
// chunk, Gather with the values, and WordRange stays inside the payload.
func checkRangeKernels(t *testing.T, cc ChunkCodec, values []uint64, rng *rand.Rand) {
	t.Helper()
	n := uint64(len(values))
	chunks := (n + bitpack.ChunkSize - 1) / bitpack.ChunkSize
	words := cc.PayloadWords()
	if got := uint64(len(words)) * 8; got != cc.PayloadBytes() {
		t.Fatalf("%v: %d payload words for %d payload bytes", cc.Kind(), len(words), cc.PayloadBytes())
	}
	bound := cc.Bind(slices.Clone(words))
	checkRoundTrip(t, bound, values)

	thr := values[rng.Intn(len(values))]
	for _, op := range chunkTestCmps {
		masks := make([]uint64, chunks)
		if got := bound.CmpMaskChunks(0, chunks, op, thr, masks, false); got != chunks {
			t.Fatalf("%v: CmpMaskChunks evaluated %d of %d chunks", cc.Kind(), got, chunks)
		}
		live := make([]uint64, chunks)
		var wantEvaluated uint64
		for c := range live {
			if c%3 != 0 {
				live[c] = rng.Uint64() | 1
				wantEvaluated++
			}
		}
		anded := slices.Clone(live)
		if got := bound.CmpMaskChunks(0, chunks, op, thr, anded, true); got != wantEvaluated {
			t.Fatalf("%v: CmpMaskChunks(and) evaluated %d chunks, want %d", cc.Kind(), got, wantEvaluated)
		}
		for c := uint64(0); c < chunks; c++ {
			want := cc.CmpMaskChunk(c, op, thr)
			if masks[c] != want || anded[c] != live[c]&want {
				t.Fatalf("%v: CmpMaskChunks(%v, %d) chunk %d = %#x/%#x, want %#x/%#x",
					cc.Kind(), op, thr, c, masks[c], anded[c], want, live[c]&want)
			}
		}
	}

	idx := make([]uint64, 2*n)
	for i := range idx {
		idx[i] = uint64(rng.Int63n(int64(n)))
	}
	out := make([]uint64, len(idx))
	bound.Gather(idx, out)
	for i, x := range idx {
		if out[i] != values[x] {
			t.Fatalf("%v: Gather[%d] (element %d) = %d, want %d", cc.Kind(), i, x, out[i], values[x])
		}
	}

	for range 2 {
		lo := uint64(rng.Int63n(int64(n)))
		hi := lo + uint64(rng.Int63n(int64(n-lo))) + 1
		if loWord, hiWord := bound.WordRange(lo, hi); loWord >= hiWord || hiWord > uint64(len(words)) {
			t.Fatalf("%v: WordRange(%d, %d) = [%d,%d) outside %d payload words", cc.Kind(), lo, hi, loWord, hiWord, len(words))
		}
	}
}

// TestChunkCodecWidthSweep pins every codec's chunk and fold kernels
// against the Get-based reference at every packed width 1..64.
func TestChunkCodecWidthSweep(t *testing.T) {
	for w := uint(1); w <= 64; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		values := chunkTestValues(w, rng)
		for _, kind := range Kinds {
			e, err := Build(kind, values)
			if err != nil {
				t.Fatalf("width %d: Build(%v): %v", w, kind, err)
			}
			cc, ok := e.(ChunkCodec)
			if !ok {
				t.Fatalf("width %d: %v does not implement ChunkCodec", w, kind)
			}
			checkRoundTrip(t, e, values)
			checkChunkCodec(t, cc, values, rng)
		}
	}
}

// TestChunkCodecExactChunkMultiple covers the no-ragged-tail shape the
// sweep's random lengths never produce.
func TestChunkCodecExactChunkMultiple(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	values := make([]uint64, 4*bitpack.ChunkSize)
	for i := range values {
		values[i] = uint64(rng.Intn(1 << 12))
	}
	for _, kind := range Kinds {
		e, err := Build(kind, values)
		if err != nil {
			t.Fatal(err)
		}
		checkChunkCodec(t, e.(ChunkCodec), values, rng)
	}
}

// TestEstimateMatchesConstruction is the property EstimatePayloadBytes
// documents: the estimate from one Analyze pass equals the built
// encoding's PayloadBytes, and EstimateCostStats matches CostStatsOf on
// the structural fields.
func TestEstimateMatchesConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	datasets := map[string][]uint64{
		"empty": nil,
		"one":   {12345},
	}
	for _, w := range []uint{1, 7, 16, 33, 64} {
		datasets["random"+string(rune('0'+w%10))] = chunkTestValues(w, rng)
	}
	sorted := make([]uint64, 3000)
	for i := range sorted {
		sorted[i] = uint64(i) * 5
	}
	datasets["sorted"] = sorted

	for name, values := range datasets {
		stats := Analyze(values)
		for _, kind := range Kinds {
			est := EstimatePayloadBytes(kind, stats)
			e, err := Build(kind, values)
			if err != nil {
				if len(values) == 0 {
					continue
				}
				t.Fatalf("%s/%v: %v", name, kind, err)
			}
			if got := e.PayloadBytes(); got != est {
				t.Errorf("%s/%v: estimated %d B, built %d B", name, kind, est, got)
			}
			if len(values) == 0 {
				continue // CostStats of an empty array is a degenerate sentinel
			}
			ecs, bcs := EstimateCostStats(kind, stats), CostStatsOf(e)
			if ecs.CodeBits != bcs.CodeBits {
				t.Errorf("%s/%v: estimated CodeBits %d, built %d", name, kind, ecs.CodeBits, bcs.CodeBits)
			}
			if ecs.RunsPerElem != bcs.RunsPerElem {
				t.Errorf("%s/%v: estimated RunsPerElem %g, built %g", name, kind, ecs.RunsPerElem, bcs.RunsPerElem)
			}
			// Delta's estimate is a lower bound on broken chunks, so the
			// estimated constant share can only be >= the built one.
			if kind == Delta && ecs.ConstChunkShare < bcs.ConstChunkShare {
				t.Errorf("%s/%v: estimated ConstChunkShare %g below built %g",
					name, kind, ecs.ConstChunkShare, bcs.ConstChunkShare)
			}
		}
	}
}

// FuzzEncodingRoundTrip decodes fuzzer-shaped byte strings into value
// slices, builds every codec, and checks Get, DecodeAll via Decode, and
// the unmasked folds against the plain reference.
func FuzzEncodingRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(3))
	f.Add([]byte{0, 0, 0, 0, 1, 2, 3, 250}, uint8(8))
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 1}, uint8(64))
	f.Fuzz(func(t *testing.T, raw []byte, widthSeed uint8) {
		w := uint(widthSeed)%64 + 1
		mask := bitpack.MustNew(w).MaxValue()
		// Each byte extends the previous value or starts a run, so small
		// inputs still produce runs, jumps, and repeats.
		values := make([]uint64, 0, len(raw))
		var cur uint64
		for _, b := range raw {
			if b&1 == 0 {
				cur = (cur*31 + uint64(b)) & mask
			}
			values = append(values, cur)
		}
		if len(values) == 0 {
			return
		}
		chunks := (uint64(len(values)) + bitpack.ChunkSize - 1) / bitpack.ChunkSize
		full := uint64(len(values)) / bitpack.ChunkSize
		for _, kind := range Kinds {
			e, err := Build(kind, values)
			if err != nil {
				t.Fatalf("Build(%v): %v", kind, err)
			}
			for i, v := range values {
				if got := e.Get(uint64(i)); got != v {
					t.Fatalf("%v: Get(%d) = %d, want %d", kind, i, got, v)
				}
			}
			cc := e.(ChunkCodec)
			// Whole-array fold via the masked path (clamped tail mask).
			masks := make([]uint64, chunks)
			for i := range masks {
				masks[i] = ^uint64(0)
			}
			if tail := uint64(len(values)) % bitpack.ChunkSize; tail != 0 {
				masks[chunks-1] = uint64(1)<<tail - 1
			}
			checkFolds(t, cc, "masked", 0, chunks, masks, values, nil)
			// Full-chunk prefix via the unmasked folds.
			checkFolds(t, cc, "unmasked", 0, full, nil, values[:full*bitpack.ChunkSize], nil)
		}
	})
}

// BenchmarkCodecFold is the codec table EXPERIMENTS.md reports: the
// whole-column SumChunks fold of every codec over 4 Mi 16-bit values,
// clustered (equal-value runs of 512) and uniform (the paper's
// initialization formula), in ns/elem — compare each cell with the
// bitpacked one of its dataset. Each codec also gets a masked_sum and a
// masked_max row under one seeded random 50 % selection, and a cmpmask
// row: CmpMaskChunks of "v < 2^15" over the column plus the popcount that
// checks it — a predicate count, the way every caller counts. Every
// row fails on a wrong answer.
//
//	go test ./internal/encoding -run '^$' -bench CodecFold
func BenchmarkCodecFold(b *testing.B) {
	const n = 1 << 22
	const chunks = n / bitpack.ChunkSize
	const mask = 1<<16 - 1
	const threshold = 1 << 15
	rng := rand.New(rand.NewSource(1))
	selection := make([]uint64, chunks)
	for i := range selection {
		selection[i] = rng.Uint64()
	}
	cmpMasks := make([]uint64, chunks)
	for _, d := range []struct {
		name  string
		value func(i uint64) uint64
	}{
		{"clustered", func(i uint64) uint64 {
			h := (i/512)*6364136223846793005 + 1442695040888963407
			return (h ^ h>>31) & mask
		}},
		{"uniform", func(i uint64) uint64 {
			r := (i * 6364136223846793005) >> 62 // a[i] = (i + random(0,1,2)) & mask
			if r == 3 {
				r = 1
			}
			return (i + r) & mask
		}},
	} {
		values := make([]uint64, n)
		var sum, maskedSum, maskedMax, count uint64
		for i := range values {
			v := d.value(uint64(i))
			values[i] = v
			sum += v
			if selection[i/bitpack.ChunkSize]>>(i%bitpack.ChunkSize)&1 == 1 {
				maskedSum += v
				maskedMax = max(maskedMax, v)
			}
			if v < threshold {
				count++
			}
		}
		for _, kind := range Kinds {
			enc, err := Build(kind, values)
			if err != nil {
				b.Fatal(err)
			}
			cc := enc.(ChunkCodec)
			for _, row := range []struct {
				name string
				fold func() uint64
				want uint64
			}{
				{"", func() uint64 { return cc.SumChunks(0, chunks) }, sum},
				{"/masked_sum", func() uint64 { return cc.FoldChunks(FoldSum, 0, chunks, selection) }, maskedSum},
				{"/masked_max", func() uint64 { return cc.FoldChunks(FoldMax, 0, chunks, selection) }, maskedMax},
				{"/cmpmask", func() uint64 {
					cc.CmpMaskChunks(0, chunks, bitpack.CmpLt, threshold, cmpMasks, false)
					return bitpack.PopcountMasks(cmpMasks)
				}, count},
			} {
				b.Run(fmt.Sprintf("%s/%v%s", d.name, kind, row.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if got := row.fold(); got != row.want {
							b.Fatalf("got %d, want %d", got, row.want)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
				})
			}
		}
	}
}
