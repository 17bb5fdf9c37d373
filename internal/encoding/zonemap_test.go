package encoding

import (
	"testing"

	"smartarrays/internal/bitpack"
)

var zoneCmps = []bitpack.Cmp{
	bitpack.CmpEq, bitpack.CmpNe, bitpack.CmpLt,
	bitpack.CmpLe, bitpack.CmpGt, bitpack.CmpGe,
}

// zoneTestValues mixes constant runs, a sorted ramp, and noise, with a
// ragged tail — every builder shortcut and the generic path get exercised.
func zoneTestValues(n int) []uint64 {
	values := make([]uint64, n)
	for i := range values {
		switch {
		case i < n/3:
			values[i] = 7 // constant run
		case i < 2*n/3:
			values[i] = uint64(i) // sorted ramp
		default:
			x := uint64(i)*2654435761 + 12345
			values[i] = (x ^ x>>13) & 1023
		}
	}
	return values
}

// TestZoneIndexBuildersAgree builds the index through every codec and
// checks the per-chunk bounds against a brute-force scan of the values.
func TestZoneIndexBuildersAgree(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000, 4096, 4097} {
		values := zoneTestValues(n)
		want := NewZoneIndexFromValues(values)
		for _, kind := range Kinds {
			enc, err := Build(kind, values)
			if err != nil {
				t.Fatalf("Build(%v, n=%d): %v", kind, n, err)
			}
			z := BuildZoneIndex(enc.(ChunkCodec))
			if z.Length() != want.Length() || z.Chunks() != want.Chunks() {
				t.Fatalf("%v n=%d: shape = (%d,%d), want (%d,%d)",
					kind, n, z.Length(), z.Chunks(), want.Length(), want.Chunks())
			}
			for c := uint64(0); c < z.Chunks(); c++ {
				gmn, gmx := z.ChunkBounds(c)
				wmn, wmx := want.ChunkBounds(c)
				if gmn != wmn || gmx != wmx {
					t.Fatalf("%v n=%d chunk %d: bounds [%d,%d], want [%d,%d]",
						kind, n, c, gmn, gmx, wmn, wmx)
				}
			}
			gmn, gmx := z.Bounds()
			wmn, wmx := want.Bounds()
			if gmn != wmn || gmx != wmx {
				t.Fatalf("%v n=%d: root bounds [%d,%d], want [%d,%d]", kind, n, gmn, gmx, wmn, wmx)
			}
		}
	}
}

// TestZoneVerdictSound checks, for every chunk, operator, and a spread of
// thresholds, that ZoneNone chunks really contain no match and ZoneAll
// chunks really contain only matches.
func TestZoneVerdictSound(t *testing.T) {
	values := zoneTestValues(1000)
	z := NewZoneIndexFromValues(values)
	thresholds := []uint64{0, 1, 6, 7, 8, 100, 333, 666, 999, 1023, ^uint64(0)}
	for _, op := range zoneCmps {
		for _, thr := range thresholds {
			for c := uint64(0); c < z.Chunks(); c++ {
				lo := c * bitpack.ChunkSize
				hi := lo + bitpack.ChunkSize
				if hi > uint64(len(values)) {
					hi = uint64(len(values))
				}
				matches, elems := 0, int(hi-lo)
				for _, v := range values[lo:hi] {
					if op.Eval(v, thr) {
						matches++
					}
				}
				switch z.Verdict(c, op, thr) {
				case ZoneNone:
					if matches != 0 {
						t.Fatalf("op %v thr %d chunk %d: ZoneNone but %d matches", op, thr, c, matches)
					}
				case ZoneAll:
					if matches != elems {
						t.Fatalf("op %v thr %d chunk %d: ZoneAll but %d/%d matches", op, thr, c, matches, elems)
					}
				}
			}
			// Super-zone verdicts must agree with their chunks.
			for s := uint64(0); s < z.Supers(); s++ {
				sv := z.SuperVerdict(s, op, thr)
				if sv == ZoneMixed {
					continue
				}
				last := (s + 1) * ZoneFanout
				if last > z.Chunks() {
					last = z.Chunks()
				}
				for c := s * ZoneFanout; c < last; c++ {
					if cv := z.Verdict(c, op, thr); cv != sv {
						t.Fatalf("op %v thr %d: super %d says %d but chunk %d says %d", op, thr, s, sv, c, cv)
					}
				}
			}
		}
	}
}

// TestZoneConstantAndStats pins the Constant fast path and the PruneStats
// accounting on a fully sorted ramp.
func TestZoneConstantAndStats(t *testing.T) {
	n := 64 * 256
	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(i / 1024) // long constant plateaus
	}
	z := NewZoneIndexFromValues(values)
	for c := uint64(0); c < z.Chunks(); c++ {
		v, ok := z.Constant(c)
		if !ok {
			t.Fatalf("chunk %d: expected constant", c)
		}
		if want := values[c*bitpack.ChunkSize]; v != want {
			t.Fatalf("chunk %d: constant %d, want %d", c, v, want)
		}
	}
	// values < 4 selects exactly the first quarter of the ramp.
	st := z.PruneStatsFor(bitpack.CmpLt, 4)
	if st.AllShare != 0.25 || st.NoneShare != 0.75 {
		t.Fatalf("PruneStats = %+v, want all=0.25 none=0.75", st)
	}
	if st.SuperResolvedShare != 1 {
		t.Fatalf("SuperResolvedShare = %v, want 1 (sorted data, aligned boundary)", st.SuperResolvedShare)
	}
}

// pruneStatsFlat is the flat walk PruneStatsFor used to be — one verdict
// per fine entry, then one per super zone — kept as the oracle the
// two-level walk must equal bit for bit.
func pruneStatsFlat(z *ZoneIndex, op bitpack.Cmp, threshold uint64) PruneStats {
	var st PruneStats
	if len(z.mins) == 0 {
		return st
	}
	var none, all uint64
	for c := range z.mins {
		switch z.Verdict(uint64(c), op, threshold) {
		case ZoneNone:
			none++
		case ZoneAll:
			all++
		}
	}
	var resolved uint64
	for s := range z.smins {
		if zoneVerdict(z.smins[s], z.smaxs[s], op, threshold) != ZoneMixed {
			resolved++
		}
	}
	st.NoneShare = float64(none) / float64(len(z.mins))
	st.AllShare = float64(all) / float64(len(z.mins))
	st.SuperResolvedShare = float64(resolved) / float64(len(z.smins))
	return st
}

// TestTwoLevelWalkMatchesFlat property-tests the two-level walk against
// the flat oracle for every operator with thresholds at and around every
// chunk's min and max, on lengths that are not multiples of the chunk or
// super-zone size.
func TestTwoLevelWalkMatchesFlat(t *testing.T) {
	shapes := map[string]func(n int) []uint64{
		"mixed": zoneTestValues,
		"sorted": func(n int) []uint64 {
			v := make([]uint64, n)
			for i := range v {
				v[i] = uint64(i)
			}
			return v
		},
		"plateaus": func(n int) []uint64 {
			v := make([]uint64, n)
			for i := range v {
				v[i] = uint64(i/5000) % 3 // clustered, values recur in disjoint runs
			}
			return v
		},
	}
	for name, gen := range shapes {
		for _, n := range []int{1, 100, 4096, 4097, 64*64*3 + 1000} {
			z := NewZoneIndexFromValues(gen(n))
			seen := map[uint64]bool{}
			var thresholds []uint64
			for c := uint64(0); c < z.Chunks(); c++ {
				mn, mx := z.ChunkBounds(c)
				for _, thr := range []uint64{mn - 1, mn, mn + 1, mx - 1, mx, mx + 1} {
					if !seen[thr] {
						seen[thr] = true
						thresholds = append(thresholds, thr)
					}
				}
			}
			for _, op := range zoneCmps {
				for _, thr := range thresholds {
					if got, want := z.PruneStatsFor(op, thr), pruneStatsFlat(z, op, thr); got != want {
						t.Fatalf("%s n=%d op %v thr %d: two-level %+v, flat %+v", name, n, op, thr, got, want)
					}
				}
			}
		}
	}
}
