package bench

import (
	"testing"

	"smartarrays/internal/obs"
)

// TestRunLiveReencoding is the end-to-end representation-drift scenario:
// scan-heavy clustered data migrates bit-packed -> RLE, the gather phase
// migrates it off RLE again (the paper's "significant random accesses ->
// No Compression" branch), and every phase verifies across migrations.
func TestRunLiveReencoding(t *testing.T) {
	rec := obs.NewRecorder(4096)
	rep := RunLiveReencoding(ReencodeConfig{Elements: 1 << 15, Recorder: rec})

	if !rep.Verified {
		t.Fatalf("reencode run failed verification: %+v", rep)
	}
	if len(rep.Path) != 3 || rep.Path[0] != "bitpacked" || rep.Path[1] != "rle" {
		t.Fatalf("representation path = %v, want bitpacked -> rle -> <random-friendly>", rep.Path)
	}
	if final := rep.Path[2]; final == "rle" || final == "bitpacked" {
		t.Fatalf("final representation %q did not leave the fold-optimized pick", final)
	}
	if rep.GatherFlipLoop == 0 {
		t.Fatal("gather phase never flipped the representation")
	}
	if len(rep.Events) != 2 {
		t.Fatalf("got %d reencode events, want 2", len(rep.Events))
	}
	first, second := rep.Events[0], rep.Events[1]
	if first.ChunkDecodeShare < 0.9 {
		t.Errorf("first migration chunk-decode share = %.3f, want scan-dominated", first.ChunkDecodeShare)
	}
	if second.RandomShare <= first.RandomShare {
		t.Errorf("random share did not climb: %.3f -> %.3f", first.RandomShare, second.RandomShare)
	}
	if rep.TrafficBytes == 0 || rep.TrafficBytes != first.TrafficBytes+second.TrafficBytes {
		t.Errorf("traffic accounting off: total %d, events %d + %d",
			rep.TrafficBytes, first.TrafficBytes, second.TrafficBytes)
	}

	// The migrations must surface as recorded audit events.
	var reencodes int
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindReencode {
			reencodes++
			if ev.Reencode.Reason == "" {
				t.Error("reencode event without a reason")
			}
		}
	}
	if reencodes != 2 {
		t.Errorf("recorded %d reencode events, want 2", reencodes)
	}
}
