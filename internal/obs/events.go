package obs

import "smartarrays/internal/counters"

// Kind tags an Event with its payload type.
type Kind string

const (
	// KindLoop is one RTS parallel-loop execution (LoopStats payload).
	KindLoop Kind = "loop"
	// KindCounters is a counter-fabric snapshot (CountersEvent payload).
	KindCounters Kind = "counters"
	// KindDecision is one §6 adaptivity decision (DecisionEvent payload).
	KindDecision Kind = "decision"
	// KindMultiDecision is one joint multi-array placement decision.
	KindMultiDecision Kind = "multi-decision"
	// KindSpan is a completed nested phase span (SpanEvent payload).
	KindSpan Kind = "span"
	// KindDrift is a live-telemetry adaptivity drift audit event
	// (DriftEvent payload): the live per-array profile would flip a §6
	// decision made from the initial one-shot profile.
	KindDrift Kind = "drift"
	// KindReencode is a live representation migration (ReencodeEvent
	// payload): the per-array access profile flipped the codec pick and
	// the re-encoder swapped the array's encoding in place.
	KindReencode Kind = "reencode"
)

// Event is the trace envelope: exactly one payload pointer is set,
// selected by Kind. Payloads are pointers so unset ones marshal away.
type Event struct {
	// Seq is the event's position in the recorder's total order
	// (assigned by Record).
	Seq  uint64 `json:"seq"`
	Kind Kind   `json:"kind"`
	// Label annotates phase markers and is free for any event.
	Label string `json:"label,omitempty"`

	Loop          *LoopStats          `json:"loop,omitempty"`
	Counters      *CountersEvent      `json:"counters,omitempty"`
	Decision      *DecisionEvent      `json:"decision,omitempty"`
	MultiDecision *MultiDecisionEvent `json:"multiDecision,omitempty"`
	Span          *SpanEvent          `json:"span,omitempty"`
	Drift         *DriftEvent         `json:"drift,omitempty"`
	Reencode      *ReencodeEvent      `json:"reencode,omitempty"`
}

// LoopStats describes one ParallelFor execution: how the dynamic batch
// scheduler actually distributed work across the worker pool.
type LoopStats struct {
	// Begin/End/Grain echo the loop shape; Batches is the claimed total.
	Begin   uint64 `json:"begin"`
	End     uint64 `json:"end"`
	Grain   uint64 `json:"grain"`
	Batches uint64 `json:"batches"`
	// Iterations is how many indices the loop ran: End-Begin, less the
	// gaps between the spans of a ParallelForSpans loop.
	Iterations uint64 `json:"iterations"`
	// BatchesPerWorker[i] is how many batches hardware thread i claimed.
	BatchesPerWorker []uint64 `json:"batchesPerWorker,omitempty"`
	// BatchesPerSocket aggregates the claims by NUMA node.
	BatchesPerSocket []uint64 `json:"batchesPerSocket,omitempty"`
	// Steals counts batches executed by a worker outside the batch's
	// home-socket stripe (cross-socket work stealing); zero when stealing
	// is disabled.
	Steals uint64 `json:"steals,omitempty"`
	// StealsPerWorker[i] is how many of worker i's claims were steals.
	StealsPerWorker []uint64 `json:"stealsPerWorker,omitempty"`
	// ClaimImbalance is (max-min)/mean over per-worker claims — 0 for a
	// perfectly even spread. Callisto's dynamic claiming keeps this low
	// within a socket; stripes are static across sockets.
	ClaimImbalance float64 `json:"claimImbalance"`
	// MaxMeanClaimRatio is max/mean over per-worker claims — 1.0 for a
	// perfectly even spread, higher when a few workers dominate. This is
	// the imbalance ratio the stealing path is meant to pull toward 1.
	MaxMeanClaimRatio float64 `json:"maxMeanClaimRatio,omitempty"`
	// GrainEfficiency is iterations/(batches*grain): 1.0 when the range
	// divides evenly, lower when the tail batch is ragged.
	GrainEfficiency float64 `json:"grainEfficiency"`
}

// NewLoopStats derives the summary statistics from raw per-worker claim
// counts. iterations is how many of the indices in [begin, end) the loop
// ran. steals[i] counts worker i's cross-stripe claims and may be nil
// when the loop ran without stealing. sockets[i] gives worker i's NUMA
// node.
func NewLoopStats(begin, end, iterations, grain uint64, claims, steals []uint64, sockets []int) LoopStats {
	ls := LoopStats{Begin: begin, End: end, Grain: grain, Iterations: iterations,
		BatchesPerWorker: claims}
	for _, st := range steals {
		ls.Steals += st
	}
	if ls.Steals > 0 {
		ls.StealsPerWorker = steals
	}
	var total, min, max uint64
	first := true
	nSockets := 0
	for i, c := range claims {
		total += c
		if first || c < min {
			min = c
		}
		if first || c > max {
			max = c
		}
		first = false
		if sockets != nil && sockets[i] >= nSockets {
			nSockets = sockets[i] + 1
		}
	}
	ls.Batches = total
	if nSockets > 0 {
		ls.BatchesPerSocket = make([]uint64, nSockets)
		for i, c := range claims {
			ls.BatchesPerSocket[sockets[i]] += c
		}
	}
	if total > 0 && len(claims) > 0 {
		mean := float64(total) / float64(len(claims))
		ls.ClaimImbalance = float64(max-min) / mean
		ls.MaxMeanClaimRatio = float64(max) / mean
		if grain > 0 {
			ls.GrainEfficiency = float64(iterations) / float64(total*grain)
		}
	}
	return ls
}

// SocketCounters is the JSON form of one socket's counter aggregate
// (counters.SocketTotals flattened into the local/remote split the
// performance model and the paper's plots use).
type SocketCounters struct {
	Socket           int    `json:"socket"`
	Instructions     uint64 `json:"instructions"`
	LocalReadBytes   uint64 `json:"localReadBytes"`
	RemoteReadBytes  uint64 `json:"remoteReadBytes"`
	LocalWriteBytes  uint64 `json:"localWriteBytes"`
	RemoteWriteBytes uint64 `json:"remoteWriteBytes"`
	RandomAccesses   uint64 `json:"randomAccesses"`
	Accesses         uint64 `json:"accesses"`
}

// CountersEvent is a labeled counter-fabric snapshot.
type CountersEvent struct {
	Label   string           `json:"label,omitempty"`
	Sockets []SocketCounters `json:"sockets"`
}

// CountersRecord converts a fabric snapshot into its JSON form.
func CountersRecord(snap counters.Snapshot) []SocketCounters {
	out := make([]SocketCounters, len(snap.Sockets))
	for s := range snap.Sockets {
		t := &snap.Sockets[s]
		out[s] = SocketCounters{
			Socket:          s,
			Instructions:    t.Instructions,
			LocalReadBytes:  t.LocalReadBytes(s),
			RemoteReadBytes: t.RemoteReadBytes(s),
			RandomAccesses:  t.RandomAccesses,
			Accesses:        t.Accesses,
		}
		for m, b := range t.WriteBytesTo {
			if m == s {
				out[s].LocalWriteBytes += b
			} else {
				out[s].RemoteWriteBytes += b
			}
		}
	}
	return out
}

// ProfileRecord is the JSON form of the §6 runtime profile that fed a
// decision — the measured counter inputs the diagrams walked.
type ProfileRecord struct {
	MemoryBound               bool    `json:"memoryBound"`
	SignificantRandomAccesses bool    `json:"significantRandomAccesses"`
	ExecCurrent               float64 `json:"execCurrent"`
	ExecMax                   float64 `json:"execMax"`
	BWCurrentMemory           float64 `json:"bwCurrentMemory"`
	BWMaxMemory               float64 `json:"bwMaxMemory"`
	BWMaxInterconnect         float64 `json:"bwMaxInterconnect"`
	AccessesPerSec            float64 `json:"accessesPerSec"`
	CostPerCompressedAccess   float64 `json:"costPerCompressedAccess"`
	CompressionRatio          float64 `json:"compressionRatio"`
	ElemBytes                 float64 `json:"elemBytes"`
	SpaceUncompressedRepl     bool    `json:"spaceUncompressedRepl"`
	SpaceCompressedRepl       bool    `json:"spaceCompressedRepl"`
}

// CandidateRecord is one configuration the decision diagrams produced.
type CandidateRecord struct {
	// Placement is the memsim placement label; Compressed marks the
	// Figure 13b side.
	Placement  string `json:"placement"`
	Compressed bool   `json:"compressed"`
	// Admissible is false when the diagram rejected compression outright
	// ("No Compression"); Reason records the decision path either way.
	Admissible bool   `json:"admissible"`
	Reason     string `json:"reason"`
	// PredictedSpeedup is §6.2's estimate over the measured run.
	PredictedSpeedup float64 `json:"predictedSpeedup,omitempty"`
}

// DecisionEvent records one complete §6 adaptivity step: the profiled
// inputs, the candidate set from the decision diagrams, the chosen
// configuration, and — when the harness knows ground truth — the
// estimated vs realized cost from the performance model.
type DecisionEvent struct {
	// Name identifies the workload/case; Machine and Bits the cell.
	Name    string `json:"name"`
	Machine string `json:"machine,omitempty"`
	Bits    uint   `json:"bits,omitempty"`

	Profile    ProfileRecord     `json:"profile"`
	Candidates []CandidateRecord `json:"candidates"`

	// Chosen is the winning configuration's label (Candidate.String()).
	Chosen           string  `json:"chosen"`
	ChosenCompressed bool    `json:"chosenCompressed"`
	PredictedSpeedup float64 `json:"predictedSpeedup"`

	// EstimatedMs is the measured run's time divided by the predicted
	// speedup — what the policy expects the chosen configuration to cost.
	// RealizedMs is the model's ground-truth cost of the chosen
	// configuration; BestMs/BestLabel the grid optimum. Zero when the
	// harness did not evaluate ground truth.
	EstimatedMs float64 `json:"estimatedMs,omitempty"`
	RealizedMs  float64 `json:"realizedMs,omitempty"`
	BestMs      float64 `json:"bestMs,omitempty"`
	BestLabel   string  `json:"bestLabel,omitempty"`
}

// MultiArrayDecision is one array's placement inside a joint decision.
type MultiArrayDecision struct {
	Name      string `json:"name"`
	Placement string `json:"placement"`
	Socket    int    `json:"socket,omitempty"`
}

// MultiDecisionEvent records one joint multi-array placement decision
// (the coordinate-descent extension of §6).
type MultiDecisionEvent struct {
	Machine string `json:"machine"`
	// CapPerSocketBytes is the per-socket memory budget the search
	// respected.
	CapPerSocketBytes uint64               `json:"capPerSocketBytes"`
	Decisions         []MultiArrayDecision `json:"decisions"`
	// Evaluations counts performance-model solves the search spent.
	Evaluations int `json:"evaluations"`
	// ModeledSeconds / Bottleneck describe the chosen configuration.
	ModeledSeconds float64 `json:"modeledSeconds"`
	Bottleneck     string  `json:"bottleneck"`
	// FitsCapacity is false when even the all-interleaved start exceeded
	// the budget and the caller must shed data or compress.
	FitsCapacity bool `json:"fitsCapacity"`
}

// DriftEvent is the adaptivity audit record for a live re-score: the §6
// decision diagrams were re-walked against the measured per-array
// telemetry (AccessProfile) and chose differently than the initial
// one-shot profile did. The event carries both picks, the observed
// signals that flipped the walk, and the re-scored speedup estimates —
// the full "why" of the drift.
type DriftEvent struct {
	// Name identifies the workload; Array the profiled smart array.
	Name  string `json:"name"`
	Array string `json:"array,omitempty"`
	// Initial/Live are the configuration labels (Candidate.String()) of
	// the original decision and the one the live profile selects.
	Initial string `json:"initial"`
	Live    string `json:"live"`
	// InitialPredicted/LivePredicted are the §6.2 speedup estimates of
	// the two picks, each under its own profile.
	InitialPredicted float64 `json:"initialPredicted,omitempty"`
	LivePredicted    float64 `json:"livePredicted,omitempty"`
	// Observed live signals at re-score time.
	RandomShare      float64 `json:"randomShare"`
	ChunkDecodeShare float64 `json:"chunkDecodeShare"`
	LocalShare       float64 `json:"localShare"`
	Selectivity      float64 `json:"selectivity,omitempty"`
	ReadsPerElement  float64 `json:"readsPerElement"`
	// Folds is the profile's fold count at re-score time (how much
	// telemetry backed the flip).
	Folds uint64 `json:"folds"`
	// Reason explains the live pick (the decision-diagram path taken).
	Reason string `json:"reason,omitempty"`
}

// ReencodeEvent is the representation-drift audit record: the live
// per-array access profile (random share, chunk-decode share, reads per
// element) re-scored the codec choices through the per-codec cost entries
// and the measured pattern flipped the pick, so the re-encoder migrated
// the array. It is the encoding counterpart of DriftEvent for placement.
type ReencodeEvent struct {
	// Name identifies the workload; Array the profiled smart array.
	Name  string `json:"name"`
	Array string `json:"array,omitempty"`
	// From/To are the encoding kinds before and after the migration;
	// FromBits/ToBits the code widths their decode shifts through.
	From     string `json:"from"`
	To       string `json:"to"`
	FromBits uint   `json:"fromBits,omitempty"`
	ToBits   uint   `json:"toBits,omitempty"`
	// PredictedFrom/PredictedTo are the modeled instructions per element of
	// the two representations under the measured access mix.
	PredictedFrom float64 `json:"predictedFrom,omitempty"`
	PredictedTo   float64 `json:"predictedTo,omitempty"`
	// Observed live signals at re-score time.
	RandomShare      float64 `json:"randomShare"`
	ChunkDecodeShare float64 `json:"chunkDecodeShare"`
	Selectivity      float64 `json:"selectivity,omitempty"`
	ReadsPerElement  float64 `json:"readsPerElement"`
	// Folds is the profile's fold count at re-score time.
	Folds uint64 `json:"folds"`
	// TrafficBytes is the migration's cost: bytes read from the old
	// representation plus bytes written into the new one.
	TrafficBytes uint64 `json:"trafficBytes,omitempty"`
	// Reason explains the flip (which signal dominated the re-score).
	Reason string `json:"reason,omitempty"`
}
