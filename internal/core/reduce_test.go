package core

import (
	"math/rand"
	"sync"
	"testing"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/encoding"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
)

// reduceFixture allocates and fills an array of n deterministic values at
// the given width.
func reduceFixture(t *testing.T, bits uint, n uint64) (*SmartArray, []uint64) {
	t.Helper()
	mem := memsim.New(machine.UMA(2))
	a, err := Allocate(mem, Config{Length: n, Bits: bits, Placement: memsim.Interleaved})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Free)
	mask := a.Codec().Mask()
	values := make([]uint64, n)
	state := uint64(bits) * 0x9E3779B97F4A7C15
	for i := uint64(0); i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		v := state & mask
		if i%7 == 0 {
			v = mask // exercise all-ones slots
		}
		values[i] = v
		a.Init(0, i, v)
	}
	return a, values
}

// reduceRanges are the [lo, hi) shapes every equivalence test sweeps:
// empty, head-only, chunk-aligned, ragged head, ragged tail, both ragged,
// and full range (n = 3 chunks + ragged tail).
func reduceRanges(n uint64) [][2]uint64 {
	return [][2]uint64{
		{0, 0}, {5, 5}, {3, 17}, {0, 64}, {64, 128}, {10, 70},
		{0, 100}, {60, n}, {1, n - 1}, {0, n},
	}
}

// TestReduceRangeMatchesIteratorAllWidths checks the fused dispatch
// against the iterator reference for every width 1..64, including ragged
// heads and tails handled via Codec.Get.
func TestReduceRangeMatchesIteratorAllWidths(t *testing.T) {
	const n = 3*bitpack.ChunkSize + 21
	for bits := uint(1); bits <= 64; bits++ {
		a, values := reduceFixture(t, bits, n)
		for _, r := range reduceRanges(n) {
			lo, hi := r[0], r[1]
			if got, want := ReduceRange(a, 0, lo, hi, ReduceSum), SumRangeIter(a, 0, lo, hi); got != want {
				t.Fatalf("bits=%d [%d,%d): ReduceRange sum = %d, iterator = %d", bits, lo, hi, got, want)
			}
			var wantMax uint64
			wantMin := ^uint64(0)
			for i := lo; i < hi; i++ {
				if values[i] > wantMax {
					wantMax = values[i]
				}
				if values[i] < wantMin {
					wantMin = values[i]
				}
			}
			if got := ReduceRange(a, 0, lo, hi, ReduceMax); got != wantMax {
				t.Fatalf("bits=%d [%d,%d): ReduceMax = %d, want %d", bits, lo, hi, got, wantMax)
			}
			if got := ReduceRange(a, 0, lo, hi, ReduceMin); got != wantMin {
				t.Fatalf("bits=%d [%d,%d): ReduceMin = %d, want %d", bits, lo, hi, got, wantMin)
			}
		}
	}
}

// TestMaskRangePopcountMatchesReferenceAllWidths checks a predicate count
// — the popcount of MaskRange's masks — against a per-element reference
// for every width and operator over ragged ranges.
func TestMaskRangePopcountMatchesReferenceAllWidths(t *testing.T) {
	const n = 3*bitpack.ChunkSize + 21
	ops := []bitpack.Cmp{bitpack.CmpEq, bitpack.CmpNe, bitpack.CmpLt, bitpack.CmpLe, bitpack.CmpGt, bitpack.CmpGe}
	for bits := uint(1); bits <= 64; bits++ {
		a, values := reduceFixture(t, bits, n)
		thr := a.Codec().Mask() / 2
		for _, r := range reduceRanges(n) {
			lo, hi := r[0], r[1]
			_, nm := MaskChunks(lo, hi)
			masks := make([]uint64, nm)
			for _, op := range ops {
				var want uint64
				for i := lo; i < hi; i++ {
					if op.Eval(values[i], thr) {
						want++
					}
				}
				MaskRange(a, 0, lo, hi, op, thr, masks)
				if got := bitpack.PopcountMasks(masks); got != want {
					t.Fatalf("bits=%d [%d,%d) op %s: mask popcount = %d, want %d",
						bits, lo, hi, op, got, want)
				}
			}
		}
	}
}

// TestReduceRangeIdentities: empty ranges return the fold identities.
func TestReduceRangeIdentities(t *testing.T) {
	a, _ := reduceFixture(t, 12, 100)
	if got := ReduceRange(a, 0, 10, 10, ReduceSum); got != 0 {
		t.Errorf("empty sum = %d", got)
	}
	if got := ReduceRange(a, 0, 10, 10, ReduceMax); got != 0 {
		t.Errorf("empty max = %d", got)
	}
	if got := ReduceRange(a, 0, 10, 10, ReduceMin); got != ^uint64(0) {
		t.Errorf("empty min = %d", got)
	}
}

// TestReduceRangePanicsOutOfBounds mirrors Get's bounds contract on the
// range entries: a hi past the length panics before anything is read, so
// no chunk padding reaches the caller as elements.
func TestReduceRangePanicsOutOfBounds(t *testing.T) {
	a, _ := reduceFixture(t, 8, 100)
	for name, read := range map[string]func(){
		"ReduceRange":  func() { ReduceRange(a, 0, 0, 101, ReduceSum) },
		"ReadRange":    func() { ReadRange(a, 0, 50, 101, make([]uint64, 51)) },
		"Map":          func() { Map(a, 0, 0, 120, func(index, _ uint64) { t.Errorf("Map called fn at %d", index) }) },
		"SumRangeIter": func() { SumRangeIter(a, 0, 0, 120) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic for hi > length", name)
				}
			}()
			read()
		}()
	}
}

// TestReduceRangeUsesReaderReplica: a replicated array serves the fused
// reduction from the reader's socket replica.
func TestReduceRangeUsesReaderReplica(t *testing.T) {
	mem := memsim.New(machine.X52Small())
	a, err := Allocate(mem, Config{Length: 256, Bits: 17, Placement: memsim.Replicated})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Free()
	for i := uint64(0); i < 256; i++ {
		a.Init(0, i, i)
	}
	want := SumRangeIter(a, 0, 0, 256)
	for socket := 0; socket < 2; socket++ {
		if got := ReduceRange(a, socket, 0, 256, ReduceSum); got != want {
			t.Errorf("socket %d: sum = %d, want %d", socket, got, want)
		}
	}
}

// TestKernelsResolveReplicaPerCall pins that no range kernel keeps a
// replica (or a zone index) across calls: a replicated array is scanned
// from every socket at once, migrated to a single copy and rewritten —
// which leaves the dropped replicas holding the old values — then scanned
// again, and replicated once more. Every scan must see the array's
// current content. Run under -race.
func TestKernelsResolveReplicaPerCall(t *testing.T) {
	const n = 5*bitpack.ChunkSize + 21
	spec := machine.X52Small()
	for _, zones := range []bool{false, true} {
		mem := memsim.New(spec)
		a, err := Allocate(mem, Config{Length: n, Bits: 16, Placement: memsim.Replicated})
		if err != nil {
			t.Fatal(err)
		}
		values := make([]uint64, n)
		fill := func(salt uint64) {
			for i := uint64(0); i < n; i++ {
				values[i] = (i*2654435761 + salt) % 50000
				a.Init(0, i, values[i])
			}
			if zones {
				a.BuildZoneIndex()
			}
		}
		scanAllSockets := func(stage string) {
			t.Helper()
			const thr = 25000
			var wantSum, wantCount, wantMaskedSum uint64
			for _, v := range values {
				wantSum += v
				if v < thr {
					wantCount++
					if v >= 1000 {
						wantMaskedSum += v
					}
				}
			}
			var wg sync.WaitGroup
			for socket := 0; socket < spec.Sockets; socket++ {
				wg.Add(1)
				go func(socket int) {
					defer wg.Done()
					if got := ReduceRange(a, socket, 0, n, ReduceSum); got != wantSum {
						t.Errorf("%s socket %d: sum = %d, want %d", stage, socket, got, wantSum)
					}
					_, nm := MaskChunks(0, n)
					masks := make([]uint64, nm)
					MaskRange(a, socket, 0, n, bitpack.CmpLt, thr, masks)
					if got := bitpack.PopcountMasks(masks); got != wantCount {
						t.Errorf("%s socket %d: count = %d, want %d", stage, socket, got, wantCount)
					}
					MaskRangeAnd(a, socket, 0, n, bitpack.CmpGe, 1000, masks)
					if got := ReduceRangeMasked(a, socket, 0, n, ReduceSum, masks); got != wantMaskedSum {
						t.Errorf("%s socket %d: masked sum = %d, want %d", stage, socket, got, wantMaskedSum)
					}
				}(socket)
			}
			wg.Wait()
		}

		fill(1)
		scanAllSockets("replicated")
		if _, err := a.Migrate(memsim.SingleSocket, 0); err != nil {
			t.Fatal(err)
		}
		fill(7)
		scanAllSockets("single socket, rewritten")
		if _, err := a.Migrate(memsim.Replicated, 0); err != nil {
			t.Fatal(err)
		}
		scanAllSockets("replicated again")
		a.Free()
	}
}

// TestViewReduceOracleAllKinds checks View.Reduce against a scalar loop on
// every representation, without and then with a zone index, for every
// operator: unmasked over ranges with ragged heads and tails, and masked
// under random, all-dead and all-full selections, a partial tail chunk
// included. Every fold must account each covering chunk once, as scanned
// or pruned; an unmasked min or max over an index prunes every whole
// chunk, and nothing is pruned without one.
func TestViewReduceOracleAllKinds(t *testing.T) {
	const n = 11*bitpack.ChunkSize + 29
	values := make([]uint64, n)
	for i := range values {
		switch c := i / bitpack.ChunkSize; c % 3 {
		case 0: // a constant chunk
			values[i] = uint64(c*7) % 4096
		case 1: // noise
			x := uint64(i)*2654435761 + 12345
			values[i] = (x ^ x>>13) % 4096
		default: // ascending
			values[i] = uint64(i) % 4096
		}
	}
	unmasked := [][2]uint64{
		{0, 0}, {5, 5}, {3, 17}, {0, 64}, {64, 128}, {0, 100}, {7, 323},
		{60, n}, {1, n - 1}, {0, n}, {192, 576},
	}
	masked := [][2]uint64{{3, 17}, {0, 64}, {7, 323}, {60, n}, {0, n}, {192, 576}}
	rng := rand.New(rand.NewSource(5))
	selections := []struct {
		name string
		word func() uint64
	}{
		{"random", rng.Uint64},
		{"dead", func() uint64 { return 0 }},
		{"full", func() uint64 { return ^uint64(0) }},
	}
	ops := []ReduceOp{ReduceSum, ReduceMax, ReduceMin}

	for _, kind := range encoding.Kinds {
		a := mustAlloc(t, newMemory(), Config{Length: n, Bits: 12, Placement: memsim.Interleaved})
		a.InitRange(0, 0, values)
		if _, err := a.Reencode(kind, 0); err != nil {
			t.Fatalf("Reencode(%v): %v", kind, err)
		}
		for _, zones := range []bool{false, true} {
			if zones {
				a.BuildZoneIndex()
			}
			a.Memory().Pin()
			v := a.View(0)
			check := func(what string, lo, hi uint64, op ReduceOp, masks []uint64) ScanCounts {
				t.Helper()
				var sc ScanCounts
				got := v.Reduce(lo, hi, op, masks, &sc)
				want := op.Identity()
				for i := lo; i < hi; i++ {
					if masks == nil || masks[i/bitpack.ChunkSize-lo/bitpack.ChunkSize]>>(i%bitpack.ChunkSize)&1 == 1 {
						want = foldScalar(op, want, values[i])
					}
				}
				if got != want {
					t.Fatalf("%v zones=%v %s [%d,%d) %v = %d, want %d", kind, zones, what, lo, hi, op, got, want)
				}
				if _, covering := MaskChunks(lo, hi); sc.Scanned+sc.Pruned != covering {
					t.Fatalf("%v zones=%v %s [%d,%d) %v: scanned %d + pruned %d, want %d covering chunks",
						kind, zones, what, lo, hi, op, sc.Scanned, sc.Pruned, covering)
				}
				if !zones && sc.Pruned != 0 {
					t.Fatalf("%v %s [%d,%d) %v: pruned %d chunks without a zone index", kind, what, lo, hi, op, sc.Pruned)
				}
				return sc
			}
			for _, op := range ops {
				for _, r := range unmasked {
					sc := check("unmasked", r[0], r[1], op, nil)
					if _, chunkLo, chunkHi, _ := rangeParts(r[0], r[1]); zones && op != ReduceSum && sc.Pruned != chunkHi-chunkLo {
						t.Fatalf("%v [%d,%d) %v: pruned %d chunks, want all %d whole ones", kind, r[0], r[1], op, sc.Pruned, chunkHi-chunkLo)
					}
				}
				for _, sel := range selections {
					for _, r := range masked {
						check(sel.name, r[0], r[1], op, selectionMasks(r[0], r[1], sel.word))
					}
				}
			}
			a.Memory().Unpin()
		}
	}
}

// foldScalar is the reference fold step.
func foldScalar(op ReduceOp, acc, v uint64) uint64 {
	switch op {
	case ReduceSum:
		return acc + v
	case ReduceMax:
		return max(acc, v)
	}
	return min(acc, v)
}

// selectionMasks is a selection over [lo, hi) as View.Mask leaves one: a
// word per covering chunk, drawn from word, with the bits outside
// [lo, hi) clear.
func selectionMasks(lo, hi uint64, word func() uint64) []uint64 {
	first, n := MaskChunks(lo, hi)
	masks := make([]uint64, n)
	for i := range masks {
		base := (first + uint64(i)) * bitpack.ChunkSize
		masks[i] = word()
		if lo > base {
			masks[i] &= ^uint64(0) << (lo - base)
		}
		if end := base + bitpack.ChunkSize; hi < end {
			masks[i] &= ^uint64(0) >> (end - hi)
		}
	}
	return masks
}
