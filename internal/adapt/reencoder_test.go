package adapt

import (
	"testing"

	"smartarrays/internal/core"
	"smartarrays/internal/encoding"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/obs"
	"smartarrays/internal/rts"
)

// reencoderFixture is a clustered array under telemetry on a live
// runtime, plus drivers for the two access extremes.
type reencoderFixture struct {
	rt  *rts.Runtime
	reg *obs.ArrayRegistry
	arr *core.SmartArray
	n   uint64
	ref uint64
}

func newReencoderFixture(t *testing.T) *reencoderFixture {
	t.Helper()
	rt := rts.New(machine.X52Small())
	reg := obs.NewArrayRegistry()
	rt.SetArrayProfiling(reg)

	const n = 1 << 15
	a, err := core.Allocate(rt.Memory(), core.Config{
		Length: n, Bits: 16, Placement: memsim.Interleaved, Name: "watched",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Free)
	f := &reencoderFixture{rt: rt, reg: reg, arr: a, n: n}
	for i := uint64(0); i < n; i++ {
		v := f.value(i)
		a.Init(0, i, v)
		f.ref += v
	}
	return f
}

// value gives equal-value runs of hash values: RLE-friendly, nothing for
// delta or FoR to exploit.
func (f *reencoderFixture) value(i uint64) uint64 {
	h := (i/32)*6364136223846793005 + 1442695040888963407
	h ^= h >> 31
	return h & (1<<16 - 1)
}

// scan drives fused reductions through the telemetry-accounting path.
func (f *reencoderFixture) scan(t *testing.T, passes int) {
	t.Helper()
	for p := 0; p < passes; p++ {
		sum := f.rt.ReduceSum(0, f.n, 0, func(w *rts.Worker, lo, hi uint64) uint64 {
			f.arr.AccountReduce(w.Counters, lo, hi)
			return core.ReduceRange(f.arr, w.Socket, lo, hi, core.ReduceSum)
		})
		if sum != f.ref {
			t.Fatalf("scan pass %d: sum = %d, want %d", p, sum, f.ref)
		}
	}
}

// gatherLoop drives one random-gather pass through the accounting path.
func (f *reencoderFixture) gatherLoop(t *testing.T) {
	t.Helper()
	idx := make([]uint64, f.n)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range idx {
		x = x*6364136223846793005 + 1442695040888963407
		idx[i] = x % f.n
	}
	f.rt.ParallelFor(0, f.n, 0, func(w *rts.Worker, lo, hi uint64) {
		out := make([]uint64, hi-lo)
		core.Gather(f.arr, w.Socket, idx[lo:hi], out)
		f.arr.AccountGather(w.Counters, hi-lo, 1)
	})
}

// TestReencoderFollowsAccessDrift is the unit-level drift scenario: a
// fold-only mix migrates the clustered array to RLE; once random gathers
// dominate, the next re-score migrates it off RLE again.
func TestReencoderFollowsAccessDrift(t *testing.T) {
	f := newReencoderFixture(t)
	re := NewReencoder(ReencoderConfig{Name: "unit", Arrays: f.reg})
	re.Watch(f.arr)

	if events := re.CheckOnce(); len(events) != 0 {
		t.Fatalf("no-telemetry check migrated: %+v", events)
	}

	f.scan(t, 3)
	if p, _ := f.reg.Profile(f.arr.TelemetryID()); p.Access.ReduceElems != 3*f.n {
		t.Fatalf("registry attributed %d reduced elements, want %d", p.Access.ReduceElems, 3*f.n)
	}
	events := re.CheckOnce()
	if len(events) != 1 {
		t.Fatalf("scan-mix check produced %d events, want 1", len(events))
	}
	ev := events[0]
	if ev.From != "bitpacked" || ev.To != "rle" {
		t.Fatalf("scan-mix migration %s -> %s, want bitpacked -> rle", ev.From, ev.To)
	}
	if ev.Folds == 0 || ev.TrafficBytes == 0 || ev.PredictedTo >= ev.PredictedFrom {
		t.Errorf("implausible event: %+v", ev)
	}
	if got := f.arr.EncodingKind(); got != encoding.RLE {
		t.Fatalf("array is %v after migration, want rle", got)
	}
	// The fold stays exact on the new representation.
	f.scan(t, 1)

	for loop := 0; loop < 8 && f.arr.EncodingKind() == encoding.RLE; loop++ {
		f.gatherLoop(t)
		events = append(events, re.CheckOnce()...)
	}
	if got := f.arr.EncodingKind(); got == encoding.RLE {
		t.Fatal("random-dominant mix never migrated off rle")
	}
	f.scan(t, 1)
	if len(events) < 2 || events[1].From != "rle" {
		t.Errorf("migrations %+v, want a second one off rle", events)
	}
}

// TestReencoderHysteresisBlocksMarginalFlips pins that a sufficiently
// large hysteresis holds the current representation even when a
// challenger models cheaper.
func TestReencoderHysteresisBlocksMarginalFlips(t *testing.T) {
	f := newReencoderFixture(t)
	re := NewReencoder(ReencoderConfig{Name: "unit", Arrays: f.reg, Hysteresis: 1e9})
	re.Watch(f.arr)
	f.scan(t, 3)
	if events := re.CheckOnce(); len(events) != 0 {
		t.Fatalf("hysteresis 1e9 still migrated: %+v", events)
	}
	// The same profile migrates at the default margin, so the margin is
	// what held the representation.
	dflt := NewReencoder(ReencoderConfig{Name: "unit", Arrays: f.reg})
	dflt.Watch(f.arr)
	if events := dflt.CheckOnce(); len(events) != 1 {
		t.Errorf("default hysteresis produced %d events on the same profile, want 1", len(events))
	}
}

// TestReencoderMinFoldsGate pins that thin telemetry cannot trigger a
// migration.
func TestReencoderMinFoldsGate(t *testing.T) {
	f := newReencoderFixture(t)
	re := NewReencoder(ReencoderConfig{Name: "unit", Arrays: f.reg, MinFolds: 1 << 40})
	re.Watch(f.arr)
	f.scan(t, 3)
	if events := re.CheckOnce(); len(events) != 0 {
		t.Fatalf("MinFolds gate still migrated: %+v", events)
	}
}

// TestReencoderCandidateRestriction pins that only configured candidates
// are considered.
func TestReencoderCandidateRestriction(t *testing.T) {
	f := newReencoderFixture(t)
	re := NewReencoder(ReencoderConfig{
		Name: "unit", Arrays: f.reg,
		Candidates: []encoding.Kind{encoding.FoR},
	})
	re.Watch(f.arr)
	f.scan(t, 3)
	re.CheckOnce()
	if got := f.arr.EncodingKind(); got == encoding.RLE {
		t.Fatalf("migrated to %v, which is not a configured candidate", got)
	}
}
