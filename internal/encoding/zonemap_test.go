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
			if z.length != want.length || len(z.mins) != len(want.mins) {
				t.Fatalf("%v n=%d: shape = (%d,%d), want (%d,%d)",
					kind, n, z.length, len(z.mins), want.length, len(want.mins))
			}
			for c := range uint64(len(z.mins)) {
				gmn, gmx := z.ChunkBounds(c)
				wmn, wmx := want.ChunkBounds(c)
				if gmn != wmn || gmx != wmx {
					t.Fatalf("%v n=%d chunk %d: bounds [%d,%d], want [%d,%d]",
						kind, n, c, gmn, gmx, wmn, wmx)
				}
			}
			for s := range uint64(len(z.smins)) {
				gmn, gmx := z.SuperBounds(s)
				wmn, wmx := want.SuperBounds(s)
				if gmn != wmn || gmx != wmx {
					t.Fatalf("%v n=%d super %d: bounds [%d,%d], want [%d,%d]", kind, n, s, gmn, gmx, wmn, wmx)
				}
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
			for c := range uint64(len(z.mins)) {
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
			for s := range uint64(len(z.smins)) {
				sv := z.SuperVerdict(s, op, thr)
				if sv == ZoneMixed {
					continue
				}
				last := (s + 1) * ZoneFanout
				last = min(last, uint64(len(z.mins)))
				for c := s * ZoneFanout; c < last; c++ {
					if cv := z.Verdict(c, op, thr); cv != sv {
						t.Fatalf("op %v thr %d: super %d says %d but chunk %d says %d", op, thr, s, sv, c, cv)
					}
				}
			}
		}
	}
}

// TestZoneConstantAndStats pins the Constant fast path on a fully sorted
// ramp of long constant plateaus.
func TestZoneConstantAndStats(t *testing.T) {
	n := 64 * 256
	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(i / 1024) // long constant plateaus
	}
	z := NewZoneIndexFromValues(values)
	for c := range uint64(len(z.mins)) {
		v, ok := z.Constant(c)
		if !ok {
			t.Fatalf("chunk %d: expected constant", c)
		}
		if want := values[c*bitpack.ChunkSize]; v != want {
			t.Fatalf("chunk %d: constant %d, want %d", c, v, want)
		}
	}
}
