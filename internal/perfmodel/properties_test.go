package perfmodel

import (
	"testing"
	"testing/quick"

	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
)

// Property tests over the performance model's invariants: these pin down
// the physics the reproduction relies on, independent of calibration.

func randomWorkload(bytes1, bytes2 uint64, instr uint64, p memsim.Placement) Workload {
	return Workload{
		Instructions: float64(instr % (1 << 40)),
		Streams: []Stream{
			{Kind: Read, Bytes: float64(bytes1 % (1 << 36)), Placement: p},
			{Kind: Read, Bytes: float64(bytes2 % (1 << 36)), Placement: p},
		},
	}
}

// Property: more bytes never makes a workload faster.
func TestQuickMonotoneInBytes(t *testing.T) {
	spec := machine.X52Large()
	f := func(b1, b2, instr uint64, placement uint8) bool {
		p := placements[int(placement)%len(placements)]
		w := randomWorkload(b1, b2, instr, p)
		bigger := w
		bigger.Streams = append([]Stream(nil), w.Streams...)
		bigger.Streams[0].Bytes *= 2
		return Solve(spec, bigger).Seconds >= Solve(spec, w).Seconds-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: more instructions never makes a workload faster.
func TestQuickMonotoneInInstructions(t *testing.T) {
	spec := machine.X52Small()
	f := func(b1, b2, instr uint64) bool {
		w := randomWorkload(b1, b2, instr, memsim.Interleaved)
		heavier := w
		heavier.Instructions *= 2
		return Solve(spec, heavier).Seconds >= Solve(spec, w).Seconds-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: replicated placement is never slower than single socket for
// read-only workloads (it strictly dominates: every byte is local).
func TestQuickReplicationDominatesSingleSocket(t *testing.T) {
	spec := machine.X52Small()
	f := func(b1, b2, instr uint64) bool {
		repl := Solve(spec, randomWorkload(b1, b2, instr, memsim.Replicated))
		single := Solve(spec, randomWorkload(b1, b2, instr, memsim.SingleSocket))
		return repl.Seconds <= single.Seconds+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the balanced solver never does worse than the even split.
func TestQuickSolverBeatsEvenSplit(t *testing.T) {
	spec := machine.X52Small()
	f := func(b1, b2, instr uint64, placement uint8) bool {
		p := placements[int(placement)%len(placements)]
		w := randomWorkload(b1, b2, instr, p)
		solved := Solve(spec, w)
		even := evaluateSplit(spec, w, []float64{0.5, 0.5})
		return solved.Seconds <= even.Seconds*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a faster machine (same topology, higher bandwidths and clock)
// is never slower.
func TestQuickFasterMachineIsFaster(t *testing.T) {
	f := func(b1, b2, instr uint64) bool {
		slow := machine.X52Small()
		fast := machine.X52Small()
		fast.LocalBWGBs *= 2
		fast.RemoteBWGBs *= 2
		fast.ClockGHz *= 2
		w := randomWorkload(b1, b2, instr, memsim.Interleaved)
		return Solve(fast, w).Seconds <= Solve(slow, w).Seconds+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: achieved memory bandwidth never exceeds the machine's total
// local bandwidth.
func TestQuickBandwidthBounded(t *testing.T) {
	for _, spec := range []*machine.Spec{machine.X52Small(), machine.X52Large()} {
		spec := spec
		f := func(b1, b2, instr uint64, placement uint8) bool {
			p := placements[int(placement)%len(placements)]
			w := randomWorkload(b1, b2, instr, p)
			r := Solve(spec, w)
			return r.MemBandwidthGBs <= spec.TotalLocalBWGBs()*(1+1e-9)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}

// Property: work shares are a probability distribution.
func TestQuickWorkSharesNormalized(t *testing.T) {
	spec := machine.X52Large()
	f := func(b1, b2, instr uint64, placement uint8) bool {
		p := placements[int(placement)%len(placements)]
		r := Solve(spec, randomWorkload(b1, b2, instr, p))
		var sum float64
		for _, s := range r.WorkShare {
			if s < -1e-9 {
				return false
			}
			sum += s
		}
		return sum > 0.999 && sum < 1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// placements lists every placement policy for the property generators.
var placements = []memsim.Placement{memsim.OSDefault, memsim.SingleSocket, memsim.Interleaved, memsim.Replicated}
