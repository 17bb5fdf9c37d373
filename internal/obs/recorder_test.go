package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"testing"
)

func TestRecorderOrderAndWraparound(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 20; i++ {
		r.Record(Event{Kind: kindPhase, Label: fmt.Sprintf("p%d", i)})
	}
	if got := r.Metrics().Events; got != 20 {
		t.Fatalf("Total = %d, want 20", got)
	}
	if got := r.Len(); got != 8 {
		t.Fatalf("Len = %d, want ring capacity 8", got)
	}
	if got := r.Metrics().Dropped; got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("Events returned %d, want 8", len(evs))
	}
	for i, ev := range evs {
		wantSeq := uint64(12 + i)
		if ev.Seq != wantSeq {
			t.Errorf("event %d: seq %d, want %d (oldest-first order)", i, ev.Seq, wantSeq)
		}
		if want := fmt.Sprintf("p%d", wantSeq); ev.Label != want {
			t.Errorf("event %d: label %q, want %q", i, ev.Label, want)
		}
	}
}

func TestRecorderExactCapacityNoDrop(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 4; i++ {
		r.Record(Event{Kind: kindPhase})
	}
	if r.Metrics().Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0 at exact capacity", r.Metrics().Dropped)
	}
	if seqs := r.Events(); seqs[0].Seq != 0 || seqs[3].Seq != 3 {
		t.Fatalf("unexpected seq range %d..%d", seqs[0].Seq, seqs[3].Seq)
	}
}

// TestRecorderConcurrent hammers the recorder from many goroutines (the
// parallel-loop-writer shape: every RTS worker finishing a loop records)
// and checks nothing is lost or duplicated. Run under -race this also
// polices the locking.
func TestRecorderConcurrent(t *testing.T) {
	const writers = 16
	const perWriter = 500
	r := NewRecorder(writers * perWriter) // big enough: no overwrites
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.RecordLoop(LoopStats{Begin: 0, End: uint64(w + 1), Grain: 1, Batches: 1})
			}
		}(w)
	}
	wg.Wait()
	if got := r.Metrics().Events; got != writers*perWriter {
		t.Fatalf("Total = %d, want %d", got, writers*perWriter)
	}
	evs := r.Events()
	if len(evs) != writers*perWriter {
		t.Fatalf("Events = %d, want %d", len(evs), writers*perWriter)
	}
	seen := make(map[uint64]bool, len(evs))
	for _, ev := range evs {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
		if ev.Loop == nil {
			t.Fatalf("seq %d lost its loop payload", ev.Seq)
		}
	}
	m := r.Metrics()
	if m.Loops.Loops != writers*perWriter {
		t.Fatalf("Metrics.Loops.Loops = %d, want %d", m.Loops.Loops, writers*perWriter)
	}
}

// TestRecorderMixedReadersWriters runs every producer the runtime has
// (events, loops, spans, histograms, drift audits) against every consumer
// the introspection server has (Events, Metrics, WriteTrace) on a small
// ring that wraps constantly. Run under -race this polices the full
// locking surface; the assertions check the ring stays coherent while
// being overwritten.
func TestRecorderMixedReadersWriters(t *testing.T) {
	r := NewRecorder(32) // small: force wraparound under load
	const writers = 8
	const perWriter = 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				switch i % 4 {
				case 0:
					r.Record(Event{Kind: kindPhase, Label: "p"})
				case 1:
					r.RecordLoop(LoopStats{Begin: 0, End: 64, Grain: 8, Batches: 8})
				case 2:
					s := r.StartSpan("mix")
					s.Child("inner").End()
					s.End()
				case 3:
					r.RecordDrift(DriftEvent{Array: "hot"})
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			evs := r.Events()
			for j := 1; j < len(evs); j++ {
				if evs[j].Seq <= evs[j-1].Seq {
					t.Errorf("Events out of order under load: seq %d then %d", evs[j-1].Seq, evs[j].Seq)
					return
				}
			}
			_ = r.Metrics()
			if err := r.WriteTrace(io.Discard); err != nil {
				t.Errorf("WriteTrace: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	// Spans record 2 events per case-2 iteration, the rest 1 each.
	perW := perWriter/4*5 + perWriter%4
	wantTotal := uint64(writers * perW)
	if got := r.Metrics().Events; got != wantTotal {
		t.Fatalf("Total = %d, want %d", got, wantTotal)
	}
	if r.Len() != 32 {
		t.Fatalf("Len = %d, want full ring 32", r.Len())
	}
	if r.Metrics().Dropped != wantTotal-32 {
		t.Fatalf("Dropped = %d, want %d", r.Metrics().Dropped, wantTotal-32)
	}
	m := r.Metrics()
	if m.Drifts != writers*perWriter/4 {
		t.Fatalf("Metrics.Drifts = %d, want %d", m.Drifts, writers*perWriter/4)
	}
	if m.Loops.Loops != uint64(writers*perWriter/4) {
		t.Fatalf("Metrics.Loops.Loops = %d, want %d", m.Loops.Loops, writers*perWriter/4)
	}
	if m.Histograms["span:mix"].Count != uint64(writers*perWriter/4) {
		t.Fatalf("span histogram count = %d, want %d", m.Histograms["span:mix"].Count, writers*perWriter/4)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: kindPhase})
	r.RecordLoop(LoopStats{})
	r.RecordDecision(DecisionEvent{})
	r.RecordMultiDecision(MultiDecisionEvent{})
	r.RecordCounters("x", nil)
	if r.Len() != 0 || r.Metrics().Events != 0 || r.Metrics().Dropped != 0 || r.Events() != nil {
		t.Fatal("nil recorder must be inert")
	}
	if m := r.Metrics(); m.Events != 0 {
		t.Fatal("nil recorder metrics must be zero")
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil recorder trace must be empty")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	r := NewRecorder(16)
	r.RecordDecision(DecisionEvent{
		Name: "aggregation-C++", Machine: "2x8-core Xeon", Bits: 33,
		Profile:    ProfileRecord{MemoryBound: true, ExecCurrent: 1e9},
		Candidates: []CandidateRecord{{Placement: "interleaved", Admissible: true, Reason: "memory bound"}},
		Chosen:     "replicated + compression", ChosenCompressed: true, PredictedSpeedup: 2.5,
	})
	r.RecordLoop(LoopStats{Begin: 0, End: 4096, Grain: 1024, Batches: 4, GrainEfficiency: 1})
	r.RecordCounters("phase", []SocketCounters{{Socket: 0, Instructions: 42, LocalReadBytes: 7}})

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	evs, err := readTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("round-tripped %d events, want 3", len(evs))
	}
	d := evs[0].Decision
	if evs[0].Kind != KindDecision || d == nil {
		t.Fatalf("event 0: kind %q, decision %v", evs[0].Kind, d)
	}
	if d.Chosen != "replicated + compression" || !d.ChosenCompressed || d.PredictedSpeedup != 2.5 {
		t.Fatalf("decision did not round-trip: %+v", d)
	}
	if !d.Profile.MemoryBound || d.Profile.ExecCurrent != 1e9 {
		t.Fatalf("profile did not round-trip: %+v", d.Profile)
	}
	if len(d.Candidates) != 1 || d.Candidates[0].Placement != "interleaved" {
		t.Fatalf("candidates did not round-trip: %+v", d.Candidates)
	}
	if l := evs[1].Loop; l == nil || l.End != 4096 || l.Batches != 4 {
		t.Fatalf("loop did not round-trip: %+v", l)
	}
	if c := evs[2].Counters; c == nil || c.Sockets[0].Instructions != 42 {
		t.Fatalf("counters did not round-trip: %+v", c)
	}
}

func TestNewLoopStats(t *testing.T) {
	// 4 workers on 2 sockets; worker claims 3,1,2,2 batches of grain 100
	// over [0,750): 8 batches, last one ragged (50 iterations).
	ls := NewLoopStats(0, 750, 750, 100, []uint64{3, 1, 2, 2}, []uint64{1, 0, 0, 0}, []int{0, 0, 1, 1})
	if ls.Batches != 8 {
		t.Fatalf("Batches = %d, want 8", ls.Batches)
	}
	if ls.Steals != 1 || len(ls.StealsPerWorker) != 4 {
		t.Fatalf("Steals = %d (%v), want 1", ls.Steals, ls.StealsPerWorker)
	}
	if want := 3.0 / 2.0; ls.MaxMeanClaimRatio != want {
		t.Fatalf("MaxMeanClaimRatio = %v, want %v", ls.MaxMeanClaimRatio, want)
	}
	if len(ls.BatchesPerSocket) != 2 || ls.BatchesPerSocket[0] != 4 || ls.BatchesPerSocket[1] != 4 {
		t.Fatalf("BatchesPerSocket = %v, want [4 4]", ls.BatchesPerSocket)
	}
	if want := (3.0 - 1.0) / 2.0; ls.ClaimImbalance != want {
		t.Fatalf("ClaimImbalance = %v, want %v", ls.ClaimImbalance, want)
	}
	if want := 750.0 / 800.0; ls.GrainEfficiency != want {
		t.Fatalf("GrainEfficiency = %v, want %v", ls.GrainEfficiency, want)
	}
}

// kindPhase is a free-form test event kind (Label payload only).
const kindPhase Kind = "phase"

// readTrace parses a JSONL trace produced by WriteTrace.
func readTrace(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
}
