package adapt

import (
	"testing"

	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/perfmodel"
)

// pageRankUsages models the PageRank array set at Twitter scale on the
// 8-core machine (the workload the paper says its adaptivity cannot yet
// handle): a heavy semi-random rank gather, a big streamed edge array,
// small streamed begin arrays, and a written next-rank array.
func pageRankUsages() []ArrayUsage {
	const iters = 1
	return []ArrayUsage{
		{Name: "ranks", PayloadBytes: 336e6, RandomBytes: 62e9 * iters, ScanBytes: 0.34e9, ReadOnly: true},
		{Name: "redge", PayloadBytes: 6e9, ScanBytes: 6e9 * iters, ReadOnly: true},
		{Name: "rbegin", PayloadBytes: 336e6, ScanBytes: 0.34e9 * iters, ReadOnly: true},
		{Name: "next", PayloadBytes: 336e6, WriteBytes: 0.34e9 * iters},
	}
}

func findDecision(t *testing.T, ds []MultiDecision, name string) MultiDecision {
	t.Helper()
	for _, d := range ds {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no decision for %q", name)
	return MultiDecision{}
}

func TestDecideMultiReplicatesHotReadOnlyArrays(t *testing.T) {
	spec := machine.X52Small()
	ds, res := DecideMulti(spec, 128<<30, 50e9, pageRankUsages(), nil)
	// With ample memory, the hot read-only arrays replicate.
	if d := findDecision(t, ds, "ranks"); d.Placement != memsim.Replicated {
		t.Errorf("ranks placement = %v, want replicated", d)
	}
	if d := findDecision(t, ds, "redge"); d.Placement != memsim.Replicated {
		t.Errorf("redge placement = %v, want replicated", d)
	}
	// The written array must never replicate.
	if d := findDecision(t, ds, "next"); d.Placement == memsim.Replicated {
		t.Errorf("writable array replicated: %v", d)
	}
	// The joint decision beats the all-interleaved baseline.
	baseline := perfmodel.Solve(spec, buildMultiWorkload(50e9, pageRankUsages(),
		allInterleaved(pageRankUsages())))
	if res.Seconds >= baseline.Seconds {
		t.Errorf("joint placement (%.2fs) should beat all-interleaved (%.2fs)",
			res.Seconds, baseline.Seconds)
	}
}

func TestDecideMultiRespectsCapacity(t *testing.T) {
	spec := machine.X52Small()
	// Capacity fits interleaved everything plus replicating ONLY the small
	// arrays — the 6 GB edge array cannot replicate (needs 6 GB/socket on
	// top of everything else at 6.5 GB/socket cap).
	usages := pageRankUsages()
	capPerSocket := uint64(6.5e9)
	ds, _ := DecideMulti(spec, capPerSocket, 50e9, usages, nil)
	if !fitsCapacity(spec, capPerSocket, usages, ds) {
		t.Fatalf("decision exceeds capacity: %v", ds)
	}
	if d := findDecision(t, ds, "redge"); d.Placement == memsim.Replicated {
		t.Errorf("6 GB edge array replicated under 6.5 GB/socket capacity: %v", ds)
	}
	// The hottest array (ranks, small payload) still replicates.
	if d := findDecision(t, ds, "ranks"); d.Placement != memsim.Replicated {
		t.Errorf("ranks placement = %v, want replicated (fits easily)", d)
	}
}

func TestDecideMultiInfeasibleStartReportsAsIs(t *testing.T) {
	spec := machine.X52Small()
	usages := []ArrayUsage{{Name: "huge", PayloadBytes: 100e9, ScanBytes: 1e9, ReadOnly: true}}
	ds, _ := DecideMulti(spec, 1e9, 1e9, usages, nil)
	// Nothing feasible: the engine leaves the flexible configuration.
	if ds[0].Placement != memsim.Interleaved {
		t.Errorf("infeasible case placement = %v, want interleaved", ds[0].Placement)
	}
}

func TestFitsCapacityAccounting(t *testing.T) {
	spec := machine.X52Small()
	usages := []ArrayUsage{{Name: "a", PayloadBytes: 10 << 30}}
	repl := []MultiDecision{{Name: "a", Placement: memsim.Replicated}}
	single := []MultiDecision{{Name: "a", Placement: memsim.SingleSocket, Socket: 1}}
	inter := []MultiDecision{{Name: "a", Placement: memsim.Interleaved}}
	if fitsCapacity(spec, 9<<30, usages, repl) {
		t.Error("replicated 10 GB should not fit 9 GB/socket")
	}
	if fitsCapacity(spec, 9<<30, usages, single) {
		t.Error("pinned 10 GB should not fit 9 GB on its socket")
	}
	if !fitsCapacity(spec, 9<<30, usages, inter) {
		t.Error("interleaved 10 GB (5/socket) should fit 9 GB/socket")
	}
}

func TestMultiDecisionString(t *testing.T) {
	d := MultiDecision{Name: "x", Placement: memsim.SingleSocket, Socket: 1}
	if got := d.String(); got != "x: single socket 1" {
		t.Errorf("String() = %q", got)
	}
	d2 := MultiDecision{Name: "y", Placement: memsim.Replicated}
	if got := d2.String(); got != "y: replicated" {
		t.Errorf("String() = %q", got)
	}
}

func allInterleaved(usages []ArrayUsage) []MultiDecision {
	out := make([]MultiDecision, len(usages))
	for i, u := range usages {
		out[i] = MultiDecision{Name: u.Name, Placement: memsim.Interleaved}
	}
	return out
}
