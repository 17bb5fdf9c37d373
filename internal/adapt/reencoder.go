package adapt

import (
	"fmt"
	"sync"

	"smartarrays/internal/core"
	"smartarrays/internal/encoding"
	"smartarrays/internal/obs"
	"smartarrays/internal/perfmodel"
)

// Representation drift: the Monitor re-walks §6's placement/compression
// diagrams, but the encoding zoo adds a second adaptation axis — which
// codec the array's chunks decode through. The measured inputs are the
// same per-array telemetry (random share, chunk-decode share, reads per
// element, selectivity); the scoring is the per-codec perfmodel entries
// weighted by the observed access-method mix. A Reencoder watches live
// arrays, re-scores the codec pick against that mix, and migrates an
// array in place (core.SmartArray.Reencode) when the measured pattern
// flips it — e.g. a clustered column that drifts from run-skipping scans
// to random gathers migrates RLE → bit-packed, because RLE's fold
// advantage inverts into a per-element seek penalty.

// DefaultReencodeHysteresis is the modeled-cost advantage a challenger
// representation must show before a migration is worth its traffic.
const DefaultReencodeHysteresis = 1.15

// ReencoderConfig sets up a live representation re-scorer.
type ReencoderConfig struct {
	// Name labels the workload in reencode events.
	Name string
	// Arrays is the telemetry registry profiles are pulled from.
	Arrays *obs.ArrayRegistry
	// Candidates are the representations considered (default: every kind
	// in encoding.Kinds).
	Candidates []encoding.Kind
	// Hysteresis is the minimum current/challenger modeled-cost ratio that
	// triggers a migration (default DefaultReencodeHysteresis). Values
	// <= 1 migrate on any modeled advantage.
	Hysteresis float64
	// MinFolds is the telemetry backing (profile fold count) required
	// before a re-score may act (default 1).
	MinFolds uint64
	// Socket is where migrated payloads allocate.
	Socket int
	// Recorder receives reencode audit events (may be nil).
	Recorder *obs.Recorder
}

// watchedArray is one array under representation watch, with the value
// statistics its candidate encodings are priced from.
type watchedArray struct {
	arr   *core.SmartArray
	stats encoding.Stats
}

// Reencoder re-scores watched arrays' representations against live
// per-array telemetry and migrates them when the measured access pattern
// flips the codec pick. CheckOnce calls are serialized internally; the
// migrations themselves are safe under concurrent scans (readers finish
// on the representation snapshot they loaded).
type Reencoder struct {
	cfg ReencoderConfig

	mu      sync.Mutex
	watched []watchedArray
}

// NewReencoder creates a re-encoder with no arrays under watch.
func NewReencoder(cfg ReencoderConfig) *Reencoder {
	if cfg.Hysteresis == 0 {
		cfg.Hysteresis = DefaultReencodeHysteresis
	}
	if cfg.MinFolds == 0 {
		cfg.MinFolds = 1
	}
	if len(cfg.Candidates) == 0 {
		cfg.Candidates = encoding.Kinds
	}
	return &Reencoder{cfg: cfg}
}

// Watch puts an array under representation watch. It decodes the array
// once to measure the value statistics candidates are priced from, so
// call it from the control thread, not a hot path.
func (r *Reencoder) Watch(a *core.SmartArray) {
	stats := encoding.Analyze(a.DecodeAll())
	r.mu.Lock()
	r.watched = append(r.watched, watchedArray{arr: a, stats: stats})
	r.mu.Unlock()
}

// accessMix is the observed access-method weighting of one profile: what
// fraction of element reads went through each decode path. The per-codec
// cost entries disagree most between the fold paths (where RLE/Delta
// skip) and the random paths (where they seek) — the mix is exactly the
// blend the live workload pays.
type accessMix struct {
	scan, reduce, gather float64
}

func mixOf(p *obs.AccessProfile) (accessMix, bool) {
	a := &p.Access
	total := a.ScanElems + a.ReduceElems + a.GatherElems
	if total == 0 {
		return accessMix{}, false
	}
	t := float64(total)
	return accessMix{
		scan:   float64(a.ScanElems) / t,
		reduce: float64(a.ReduceElems) / t,
		gather: float64(a.GatherElems) / t,
	}, true
}

// SeqBytePenalty converts a representation's sequential payload bytes per
// element into modeled instruction-equivalents, so density matters to the
// score: an uncompressed representation decodes cheaply but streams 8
// bytes per element. Random accesses read at cache-line granularity
// whatever the payload width, so the random byte term is (to first order)
// representation-independent and cancels out of the comparison.
const SeqBytePenalty = 1.5

// score is the modeled instruction-equivalents per element read the
// representation costs under the measured mix: the per-codec instruction
// entries weighted by the observed access-method shares, plus the
// sequential-bandwidth term for the streaming share.
func (m accessMix) score(cs encoding.CostStats) float64 {
	seq := m.scan + m.reduce
	return m.scan*perfmodel.CostEncodedScan(cs) +
		m.reduce*perfmodel.CostEncodedReduce(cs) +
		m.gather*perfmodel.CostEncodedGather(cs) +
		seq*cs.PayloadBitsPerElem/8*SeqBytePenalty
}

// CheckOnce re-scores every watched array against its live profile and
// migrates those whose measured access mix flips the codec pick by more
// than the hysteresis margin. It returns the audit events of the
// migrations performed (also recorded on the configured Recorder).
func (r *Reencoder) CheckOnce() []obs.ReencodeEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	var events []obs.ReencodeEvent
	for _, w := range r.watched {
		ev := r.checkOne(w)
		if ev == nil {
			continue
		}
		r.cfg.Recorder.RecordReencode(*ev)
		events = append(events, *ev)
	}
	return events
}

// checkOne re-scores one array; it returns the audit event when a
// migration happened, nil otherwise. Caller holds r.mu.
func (r *Reencoder) checkOne(w watchedArray) *obs.ReencodeEvent {
	p, ok := r.cfg.Arrays.Profile(w.arr.TelemetryID())
	if !ok || p.Folds < r.cfg.MinFolds {
		return nil
	}
	mix, ok := mixOf(&p)
	if !ok {
		return nil
	}

	current := w.arr.EncodingStats()
	curScore := mix.score(current)

	best := current.Kind
	bestScore := curScore
	var bestStats encoding.CostStats
	for _, kind := range r.cfg.Candidates {
		if kind == current.Kind {
			continue
		}
		cs := encoding.EstimateCostStats(kind, w.stats)
		if kind == encoding.BitPacked {
			// Reencode(BitPacked) packs at the array's logical width, not
			// the value-derived minimum.
			cs.CodeBits = w.arr.Bits()
			cs.PayloadBitsPerElem = float64(cs.CodeBits)
		}
		if s := mix.score(cs); s < bestScore {
			best, bestScore, bestStats = kind, s, cs
		}
	}
	if best == current.Kind || bestScore*r.cfg.Hysteresis >= curScore {
		return nil
	}

	traffic, err := w.arr.Reencode(best, r.cfg.Socket)
	if err != nil {
		return nil
	}
	ev := &obs.ReencodeEvent{
		Name:             r.cfg.Name,
		Array:            p.Name,
		From:             current.Kind.String(),
		To:               best.String(),
		FromBits:         current.CodeBits,
		ToBits:           bestStats.CodeBits,
		PredictedFrom:    curScore,
		PredictedTo:      bestScore,
		RandomShare:      p.RandomShare(),
		ChunkDecodeShare: p.ChunkDecodeShare(),
		ReadsPerElement:  p.ReadsPerElement(),
		Folds:            p.Folds,
		TrafficBytes:     traffic,
		Reason: fmt.Sprintf(
			"live mix (chunk %.2f, random %.2f) models %s at %.2f instr/elem vs %s at %.2f",
			p.ChunkDecodeShare(), p.RandomShare(),
			current.Kind, curScore, best, bestScore),
	}
	if sel, selOK := p.Selectivity(); selOK {
		ev.Selectivity = sel
	}
	return ev
}
