// Package perfmodel converts the traffic and instruction counts that
// workloads account (see internal/counters and internal/memsim) into modeled
// execution times and bandwidths on a declared NUMA machine.
//
// The model captures the first-order bottlenecks the paper reasons about
// (§2.1, Table 2, Figure 2):
//
//   - each socket's compute capacity (cores × clock × effective IPC);
//   - each socket's memory channel capacity (Table 1 "Local B/W");
//   - each directed interconnect link's capacity (Table 1 "Remote B/W");
//   - an issue-side stall penalty for remote bytes (threads waiting on
//     interconnect transfers leave local bandwidth unused, Table 2).
//
// Work distribution mirrors Callisto-RTS's dynamic loop scheduling: batches
// flow to whichever socket finishes first, so the model chooses the work
// split across sockets that minimizes the makespan (Solve). The same
// machinery evaluated with a fixed split (EvaluateFixed) serves measured
// counter snapshots.
package perfmodel

import (
	"fmt"
	"math"

	"smartarrays/internal/counters"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
)

// StreamKind distinguishes reads from writes in a workload description.
type StreamKind int

const (
	// Read is data flowing from memory to the processor.
	Read StreamKind = iota
	// Write is data flowing from the processor to memory.
	Write
)

// Stream describes one array's worth of traffic in a workload phase: how
// many payload bytes move and how they map onto socket memories.
type Stream struct {
	// Kind is read or write.
	Kind StreamKind
	// Bytes is the total payload over the whole phase (already compressed
	// sizes for compressed arrays; already amplified for random gathers).
	Bytes float64
	// Placement decides which memory serves which reader (see memsim).
	Placement memsim.Placement
	// Socket is the serving socket for SingleSocket placements.
	Socket int
}

// Workload is an aggregate description of one parallel phase.
type Workload struct {
	// Instructions is the total dynamic instruction count of the phase.
	Instructions float64
	// Streams is the traffic the phase generates.
	Streams []Stream
}

// Resource identifies the modeled bottleneck of a phase.
type Resource string

const (
	// BottleneckCompute: the sockets' functional units limit the phase.
	BottleneckCompute Resource = "compute"
	// BottleneckMemory: a socket's memory channel limits the phase.
	BottleneckMemory Resource = "memory"
	// BottleneckInterconnect: a socket-to-socket link limits the phase.
	BottleneckInterconnect Resource = "interconnect"
	// BottleneckIssue: remote-stall-inflated issue bandwidth limits it.
	BottleneckIssue Resource = "issue"
)

// Result reports the modeled outcome of a phase.
type Result struct {
	// Seconds is the modeled wall time of the phase.
	Seconds float64
	// Bottleneck names the binding resource.
	Bottleneck Resource
	// WorkShare is the per-socket fraction of the work under the chosen
	// (balanced) split; nil for fixed evaluations.
	WorkShare []float64
	// TotalBytes is all payload moved (reads + writes).
	TotalBytes float64
	// LocalBytes / RemoteBytes split TotalBytes by whether the transfer
	// crossed a socket boundary (remote = interconnect traffic).
	LocalBytes  float64
	RemoteBytes float64
	// MemBandwidthGBs is the achieved machine-wide memory bandwidth,
	// TotalBytes / Seconds, in GB/s — the quantity the paper's bandwidth
	// plots report.
	MemBandwidthGBs float64
	// PerMemoryGBs is the bandwidth each socket's memory sustains.
	PerMemoryGBs []float64
	// InterconnectGBs is the busiest directed link's bandwidth.
	InterconnectGBs float64
	// Instructions echoes the workload's instruction total.
	Instructions float64
	// ComputeUtil is max per-socket compute utilization in [0,1].
	ComputeUtil float64
}

// fractions returns, for a reader on socket s of a machine with n sockets,
// the share of stream bytes served by each memory socket.
func (st *Stream) fractions(reader, n int) []float64 {
	f := make([]float64, n)
	switch st.Placement {
	case memsim.Replicated:
		if st.Kind == Write {
			// Writes must update every replica.
			for m := range f {
				f[m] = 1
			}
		} else {
			f[reader] = 1
		}
	case memsim.SingleSocket:
		f[st.Socket] = 1
	default: // Interleaved and (multi-threaded first-touch) OSDefault
		for m := range f {
			f[m] = 1 / float64(n)
		}
	}
	return f
}

// Solve models the phase under dynamic (Callisto-style) load balancing: it
// picks the per-socket work split minimizing the modeled makespan.
func Solve(spec *machine.Spec, w Workload) Result {
	n := spec.Sockets
	if n == 1 {
		return evaluateSplit(spec, w, []float64{1})
	}
	if n == 2 {
		// T(share) is a max of linear functions of the split, hence convex:
		// golden-section search finds the optimum.
		lo, hi := 0.0, 1.0
		const phi = 0.6180339887498949
		for i := 0; i < 80; i++ {
			a := hi - phi*(hi-lo)
			b := lo + phi*(hi-lo)
			ra := evaluateSplit(spec, w, []float64{a, 1 - a})
			rb := evaluateSplit(spec, w, []float64{b, 1 - b})
			if ra.Seconds <= rb.Seconds {
				hi = b
			} else {
				lo = a
			}
		}
		x := (lo + hi) / 2
		return evaluateSplit(spec, w, []float64{x, 1 - x})
	}
	// General case (>2 sockets): coordinate descent over pairwise splits.
	// Every machine in the paper's evaluation has 2 sockets, so this path
	// only serves hypothetical topologies; it refines an equal split by
	// repeatedly rebalancing socket pairs with the 2-socket search.
	share := make([]float64, n)
	for s := range share {
		share[s] = 1 / float64(n)
	}
	best := evaluateSplit(spec, w, share)
	for round := 0; round < 4; round++ {
		improved := false
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				pool := share[a] + share[b]
				if pool == 0 {
					continue
				}
				lo, hi := 0.0, pool
				const phi = 0.6180339887498949
				for i := 0; i < 40; i++ {
					x := hi - phi*(hi-lo)
					y := lo + phi*(hi-lo)
					share[a], share[b] = x, pool-x
					rx := evaluateSplit(spec, w, share)
					share[a], share[b] = y, pool-y
					ry := evaluateSplit(spec, w, share)
					if rx.Seconds <= ry.Seconds {
						hi = y
					} else {
						lo = x
					}
				}
				share[a] = (lo + hi) / 2
				share[b] = pool - share[a]
				if r := evaluateSplit(spec, w, share); r.Seconds < best.Seconds-1e-15 {
					best = r
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return best
}

// socketLoads is one phase's traffic and work per socket — what the
// bottleneck step reads.
type socketLoads struct {
	mem     []float64   // bytes served by each memory
	link    [][]float64 // link[from][to] data bytes
	issue   []float64   // stall-weighted bytes per reader
	compute []float64   // instructions per socket
	// totalBytes counts every replica's traffic; instructions is the
	// phase's total.
	totalBytes, instructions float64
}

func newSocketLoads(n int) *socketLoads {
	l := &socketLoads{
		mem:     make([]float64, n),
		link:    make([][]float64, n),
		issue:   make([]float64, n),
		compute: make([]float64, n),
	}
	for i := range l.link {
		l.link[i] = make([]float64, n)
	}
	return l
}

// evaluateSplit computes the modeled time when socket s performs share[s]
// of the phase's work.
func evaluateSplit(spec *machine.Spec, w Workload, share []float64) Result {
	n := spec.Sockets
	l := newSocketLoads(n)
	l.instructions = w.Instructions
	for s := 0; s < n; s++ {
		l.compute[s] = share[s] * w.Instructions
		for i := range w.Streams {
			st := &w.Streams[i]
			bytes := share[s] * st.Bytes
			if bytes == 0 {
				continue
			}
			fr := st.fractions(s, n)
			for m := 0; m < n; m++ {
				b := bytes * fr[m]
				if b == 0 {
					continue
				}
				l.totalBytes += b // per-replica traffic for replicated writes
				l.mem[m] += b
				if m != s {
					if st.Kind == Read {
						l.link[m][s] += b // data flows memory m -> reader s
					} else {
						l.link[s][m] += b // data flows reader s -> memory m
					}
					l.issue[s] += b * spec.RemoteStallFactor
				} else {
					l.issue[s] += b
				}
			}
		}
	}
	res := l.result(spec)
	res.WorkShare = append([]float64(nil), share...)
	return res
}

// EvaluateFixed models a phase whose per-socket attribution is already
// fixed — e.g. a measured counters.Snapshot where each shard was bound to
// its socket. No rebalancing is applied: the snapshot says who did what.
func EvaluateFixed(spec *machine.Spec, snap counters.Snapshot) Result {
	n := spec.Sockets
	if len(snap.Sockets) != n {
		panic(fmt.Sprintf("perfmodel: snapshot has %d sockets, machine %d", len(snap.Sockets), n))
	}
	l := newSocketLoads(n)
	for s := 0; s < n; s++ {
		t := &snap.Sockets[s]
		l.compute[s] = float64(t.Instructions)
		l.instructions += float64(t.Instructions)
		for m := 0; m < n; m++ {
			rb := float64(t.ReadBytesFrom[m])
			wb := float64(t.WriteBytesTo[m])
			l.totalBytes += rb + wb
			l.mem[m] += rb + wb
			if m != s {
				l.link[m][s] += rb
				l.link[s][m] += wb
				l.issue[s] += (rb + wb) * spec.RemoteStallFactor
			} else {
				l.issue[s] += rb + wb
			}
		}
	}
	return l.result(spec)
}

// result is the bottleneck step: the phase takes as long as its most
// loaded resource — a socket's compute, a memory's bandwidth, a reader's
// stall-weighted issue rate or a directed link — and the bandwidths follow
// from that time.
func (l *socketLoads) result(spec *machine.Spec) Result {
	n := spec.Sockets
	localBW := spec.LocalBWGBs * machine.GB
	remoteBW := spec.RemoteBWGBs * machine.GB
	exec := spec.ExecRate()

	seconds := 0.0
	bottleneck := BottleneckCompute
	consider := func(t float64, r Resource) {
		if t > seconds {
			seconds = t
			bottleneck = r
		}
	}
	var computeMax float64
	for s := 0; s < n; s++ {
		ct := l.compute[s] / exec
		if ct > computeMax {
			computeMax = ct
		}
		consider(ct, BottleneckCompute)
		consider(l.mem[s]/localBW, BottleneckMemory)
		consider(l.issue[s]/localBW, BottleneckIssue)
		for m := 0; m < n; m++ {
			if m != s && remoteBW > 0 {
				consider(l.link[s][m]/remoteBW, BottleneckInterconnect)
			}
		}
	}
	if seconds == 0 {
		seconds = math.SmallestNonzeroFloat64
	}

	res := Result{
		Seconds:      seconds,
		Bottleneck:   bottleneck,
		TotalBytes:   l.totalBytes,
		Instructions: l.instructions,
		PerMemoryGBs: make([]float64, n),
	}
	res.MemBandwidthGBs = l.totalBytes / seconds / machine.GB
	for m := 0; m < n; m++ {
		res.PerMemoryGBs[m] = l.mem[m] / seconds / machine.GB
	}
	var maxLink, remoteBytes float64
	for s := 0; s < n; s++ {
		for m := 0; m < n; m++ {
			remoteBytes += l.link[s][m]
			if l.link[s][m] > maxLink {
				maxLink = l.link[s][m]
			}
		}
	}
	res.RemoteBytes = remoteBytes
	res.LocalBytes = l.totalBytes - remoteBytes
	res.InterconnectGBs = maxLink / seconds / machine.GB
	if exec > 0 {
		res.ComputeUtil = computeMax / seconds
	}
	return res
}
