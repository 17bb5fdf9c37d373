package bench

import (
	"bytes"
	"testing"
)

// TestLiveReportsReplay pins that the live drivers' reports are a
// function of the workload alone: run twice at their defaults, each
// prints byte-identical reports, and the profile's fold count is exactly
// the driver's accounting calls — one per hook call (one per loop batch
// at the default grain of 2048) and one per predicate pass.
func TestLiveReportsReplay(t *testing.T) {
	// RunLiveAdaptivity on 1<<18 elements: a 128-batch init loop, three
	// 128-batch reduce passes with one predicate pass each, and six
	// gather loops over 1<<15 indices (16 batches).
	const liveCalls = 128 + 3*(128+1) + 6*16
	// RunLiveReencoding on 1<<17 elements: a 64-batch init loop, five
	// 64-batch reduce passes (three before the first re-score, one after
	// it, one at the end) and six 64-batch gather loops.
	const reencodeCalls = 64 + 5*64 + 6*64
	var live, reencode [2]bytes.Buffer
	for i := range live {
		rep := RunLiveAdaptivity(LiveConfig{})
		if rep.Profile.Folds != liveCalls {
			t.Errorf("live run %d: %d folds, want %d accounting calls", i, rep.Profile.Folds, liveCalls)
		}
		PrintLiveReport(&live[i], rep)

		rrep := RunLiveReencoding(ReencodeConfig{})
		if rrep.Profile.Folds != reencodeCalls {
			t.Errorf("reencode run %d: %d folds, want %d accounting calls", i, rrep.Profile.Folds, reencodeCalls)
		}
		PrintReencodeReport(&reencode[i], rrep)
	}
	if !bytes.Equal(live[0].Bytes(), live[1].Bytes()) {
		t.Errorf("live reports differ between runs:\n%s\n---\n%s", &live[0], &live[1])
	}
	if !bytes.Equal(reencode[0].Bytes(), reencode[1].Bytes()) {
		t.Errorf("reencode reports differ between runs:\n%s\n---\n%s", &reencode[0], &reencode[1])
	}
}
