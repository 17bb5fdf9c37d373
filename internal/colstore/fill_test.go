package colstore

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/core"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/rts"
)

// fillLengths are the ragged table lengths around chunk and window edges.
var fillLengths = []uint64{
	1, 63, 64, 65, BuildWindow - 1, BuildWindow, BuildWindow + 1, 3*BuildWindow + 17,
}

// TestFillColumnMatchesSlice builds each length three ways — AddColumn
// from a slice, FillColumn generating the same values window by window,
// and one whole-slice InitRange (core.AllocateFor) as the reference — and
// requires identical payload words and zone bounds.
func TestFillColumnMatchesSlice(t *testing.T) {
	rt := rts.New(machine.X52Small())
	opts := Options{Placement: memsim.Interleaved}
	for _, n := range fillLengths {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			values := make([]uint64, n)
			for i := range values {
				values[i] = uint64(rng.Intn(1 << 13))
			}
			ref, err := core.AllocateFor(rt.Memory(), values, memsim.Interleaved, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Free()
			tbl, err := NewTable(rt, n)
			if err != nil {
				t.Fatal(err)
			}
			defer tbl.Free()
			fromSlice, err := tbl.AddColumn("slice", values, opts)
			if err != nil {
				t.Fatal(err)
			}
			var calls int
			var next uint64
			gen := rand.New(rand.NewSource(int64(n)))
			fromFill, err := tbl.FillColumn("fill", ref.Bits(), opts, func(lo uint64, dst []uint64) {
				if lo != next || len(dst) == 0 || len(dst) > BuildWindow {
					t.Fatalf("fill(%d, len %d) after rows [0,%d)", lo, len(dst), next)
				}
				calls++
				next = lo + uint64(len(dst))
				for i := range dst {
					dst[i] = uint64(gen.Intn(1 << 13))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if next != n || calls != int((n+BuildWindow-1)/BuildWindow) {
				t.Fatalf("fill covered [0,%d) in %d calls, want [0,%d)", next, calls, n)
			}
			want := ref.GetReplica(0)
			for _, col := range []*Column{fromSlice, fromFill} {
				arr := col.Array()
				if arr.Bits() != ref.Bits() || !slices.Equal(arr.GetReplica(0), want) {
					t.Fatalf("column %q: %d-bit payload differs from the whole-slice InitRange's (%d bits)", col.Name, arr.Bits(), ref.Bits())
				}
				z := arr.ZoneIndex()
				if z == nil {
					t.Fatalf("column %q has no zone index", col.Name)
				}
				for ch := uint64(0); ch*bitpack.ChunkSize < n; ch++ {
					lo, hi := ch*bitpack.ChunkSize, min(n, (ch+1)*bitpack.ChunkSize)
					mn, mx := z.ChunkBounds(ch)
					if mn != slices.Min(values[lo:hi]) || mx != slices.Max(values[lo:hi]) {
						t.Fatalf("column %q chunk %d: zone bounds [%d,%d], values span [%d,%d]",
							col.Name, ch, mn, mx, slices.Min(values[lo:hi]), slices.Max(values[lo:hi]))
					}
				}
			}
		})
	}
}

// TestFillColumnRejectsWideValue: a fill value wider than the declared
// width panics with the write kernels' overflow report, whether it lands
// in a whole chunk (Pack) or in the ragged tail (Set).
func TestFillColumnRejectsWideValue(t *testing.T) {
	rt := rts.New(machine.X52Small())
	for _, row := range []uint64{5, BuildWindow + 70} {
		tbl, err := NewTable(rt, BuildWindow+72)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := "bitpack: value 0x10 does not fit in 4 bits"; msg != want {
					t.Errorf("row %d: panic %q, want %q", row, msg, want)
				}
			}()
			tbl.FillColumn("c", 4, Options{}, func(lo uint64, dst []uint64) {
				for i := range dst {
					dst[i] = 0
					if lo+uint64(i) == row {
						dst[i] = 16
					}
				}
			})
		}()
	}
	tbl, err := NewTable(rt, 10)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tbl.FillColumn("c", 4, Options{AutoEncode: true}, func(uint64, []uint64) {})
	if err == nil || !strings.Contains(err.Error(), "AutoEncode") {
		t.Errorf("FillColumn with AutoEncode: err %v, want a refusal", err)
	}
}
