package main

import (
	"bytes"
	"testing"

	"smartarrays/internal/queryd/plan"
)

// Request generators are pure functions of the seed: the same seed replays
// the same stream, another seed a different one, and every body parses.
func TestGeneratorsArePureFunctionsOfSeed(t *testing.T) {
	for _, wl := range workloads {
		a, b, other := newGenerator(wl.Name, 7), newGenerator(wl.Name, 7), newGenerator(wl.Name, 8)
		differs := false
		for n := uint64(0); n < 2000; n++ {
			body := a.body(n)
			if !bytes.Equal(body, b.body(n)) {
				t.Fatalf("%s: request %d differs between two generators with one seed", wl.Name, n)
			}
			if !bytes.Equal(body, a.body(n)) {
				t.Fatalf("%s: request %d differs when asked twice", wl.Name, n)
			}
			differs = differs || !bytes.Equal(body, other.body(n))
			if _, err := plan.Parse(body); err != nil {
				t.Fatalf("%s: request %d does not parse: %v\n%s", wl.Name, n, err, body)
			}
		}
		if !differs && wl.Name != wlGraphRank {
			t.Errorf("%s: seeds 7 and 8 generate the same stream", wl.Name)
		}
	}
}

// The scan workloads must miss the result cache on every request, which
// they do by never repeating a body.
func TestScanStreamsNeverRepeat(t *testing.T) {
	for _, wl := range []string{wlScanUnique, wlScanSelective} {
		g := newGenerator(wl, 11)
		seen := map[string]uint64{}
		for n := uint64(0); n < 150000; n++ {
			body := string(g.body(n))
			if prev, dup := seen[body]; dup {
				t.Fatalf("%s: requests %d and %d are the same: %s", wl, prev, n, body)
			}
			seen[body] = n
		}
	}
}

// scan_unique thresholds stay where no zone map can decide a chunk, and
// scan_selective windows stay 64..4096 rows wide.
func TestPredicateRanges(t *testing.T) {
	u, s := newGenerator(wlScanUnique, 5), newGenerator(wlScanSelective, 5)
	for n := uint64(0); n < 5000; n++ {
		p, err := plan.Parse(u.body(n))
		if err != nil {
			t.Fatal(err)
		}
		if th := p.Preds[0].Value; p.Preds[0].Column != "amount" || th < thresholdLo || th >= thresholdLo+thresholdSpan {
			t.Fatalf("scan_unique request %d: first predicate %+v outside the threshold band", n, p.Preds[0])
		}
		p, err = plan.Parse(s.body(n))
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := p.Preds[0].Value, p.Preds[1].Value
		if w := hi - lo; lo >= datasetRows || w < 64 || w > 4096 || w&(w-1) != 0 {
			t.Fatalf("scan_selective request %d: window [%d,%d)", n, lo, hi)
		}
	}
}

// repeat_hot draws from exactly hotPlans distinct bodies, all of them in
// the prefill, with the head of the Zipf distribution the most popular.
func TestRepeatHotPool(t *testing.T) {
	g := newGenerator(wlRepeatHot, 11)
	pool := map[string]int{}
	for _, b := range g.prefill() {
		pool[string(b)] = 0
	}
	if len(pool) != hotPlans {
		t.Fatalf("prefill has %d distinct plans, want %d", len(pool), hotPlans)
	}
	const draws = 100000
	for n := uint64(0); n < draws; n++ {
		body := string(g.body(n))
		if _, ok := pool[body]; !ok {
			t.Fatalf("request %d is not in the prefill: %s", n, body)
		}
		pool[body]++
	}
	head := pool[string(g.prefill()[0])]
	for body, c := range pool {
		if c > head {
			t.Errorf("plan %s drawn %d times, more than rank 1 (%d)", body, c, head)
		}
	}
	// Zipf(1.1) over 256 ranks gives rank 1 about 23% of the draws.
	if share := float64(head) / draws; share < 0.20 || share > 0.26 {
		t.Errorf("rank 1 drawn %.3f of the time, want about 0.23", share)
	}
	for _, wl := range []string{wlScanUnique, wlScanSelective, wlGraphRank} {
		if n := len(newGenerator(wl, 11).prefill()); n != 0 {
			t.Errorf("%s prefills %d plans, want none", wl, n)
		}
	}
}
