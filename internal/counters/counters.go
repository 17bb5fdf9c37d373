// Package counters provides the simulated hardware performance counters
// that stand in for Intel PCM in the paper's methodology (§5, §6).
//
// The paper drives its adaptivity algorithm from three measured quantities:
// instructions executed, memory traffic (split into local and remote bytes
// per socket), and the number of accesses. Workloads in this repository
// account those quantities explicitly while they execute. To keep the hot
// paths cheap and contention-free, each simulated hardware thread owns a
// private Shard that it bumps with plain (non-atomic) adds; the Fabric
// aggregates shards on demand.
package counters

import "fmt"

// Shard is the per-thread counter block. A Shard must only ever be written
// by its owning worker; aggregation happens after the parallel phase joins,
// so no synchronization is needed on the hot path.
type Shard struct {
	// Socket is the NUMA node of the owning hardware thread.
	Socket int

	// Instructions is the modeled dynamic instruction count.
	Instructions uint64
	// LocalReadBytes is bytes read from the thread's own socket's memory.
	LocalReadBytes uint64
	// RemoteReadBytes is bytes read across the interconnect, indexed by the
	// serving socket in the Fabric aggregate.
	RemoteReadBytes uint64
	// LocalWriteBytes / RemoteWriteBytes are the write-side equivalents.
	LocalWriteBytes  uint64
	RemoteWriteBytes uint64
	// RandomAccesses counts non-sequential element accesses (pointer-chase
	// style gathers); the performance model charges these a per-access
	// amplification instead of raw payload bytes.
	RandomAccesses uint64
	// Accesses counts element accesses of any kind (the paper's
	// "#accesses" in §6.2).
	Accesses uint64

	// remoteBySrc[m] is bytes this thread read from socket m's memory when
	// m differs from the thread's socket. Local bytes stay in
	// LocalReadBytes only.
	remoteBySrc []uint64
	// writesByDst[m] is bytes this thread wrote to socket m's memory.
	writesByDst []uint64
}

// NewShard creates a shard for a worker on the given socket of a machine
// with the given number of sockets.
func NewShard(socket, sockets int) *Shard {
	if socket < 0 || socket >= sockets {
		panic(fmt.Sprintf("counters: socket %d out of range [0,%d)", socket, sockets))
	}
	return &Shard{
		Socket:      socket,
		remoteBySrc: make([]uint64, sockets),
		writesByDst: make([]uint64, sockets),
	}
}

// Read accounts a sequential read of n bytes served by memory on socket src.
func (s *Shard) Read(src int, n uint64) {
	if src == s.Socket {
		s.LocalReadBytes += n
	} else {
		s.RemoteReadBytes += n
		s.remoteBySrc[src] += n
	}
}

// Write accounts a write of n bytes to memory on socket dst.
func (s *Shard) Write(dst int, n uint64) {
	s.writesByDst[dst] += n
	if dst == s.Socket {
		s.LocalWriteBytes += n
	} else {
		s.RemoteWriteBytes += n
	}
}

// Random accounts n random (gather) accesses served by socket src. Payload
// bytes are accounted separately by the caller via Read; Random only counts
// the accesses so the model can charge latency/line amplification.
func (s *Shard) Random(n uint64) {
	s.RandomAccesses += n
}

// Instr accounts n executed instructions.
func (s *Shard) Instr(n uint64) {
	s.Instructions += n
}

// Access accounts n element accesses (for the adaptivity cost formulas).
func (s *Shard) Access(n uint64) {
	s.Accesses += n
}

// Reset zeroes the shard in place.
func (s *Shard) Reset() {
	for i := range s.remoteBySrc {
		s.remoteBySrc[i] = 0
	}
	for i := range s.writesByDst {
		s.writesByDst[i] = 0
	}
	s.Instructions = 0
	s.LocalReadBytes = 0
	s.RemoteReadBytes = 0
	s.LocalWriteBytes = 0
	s.RemoteWriteBytes = 0
	s.RandomAccesses = 0
	s.Accesses = 0
}

// SocketTotals is the aggregate view of one socket's activity, the unit the
// performance model and the adaptivity engine consume.
type SocketTotals struct {
	// Instructions executed by threads pinned to this socket.
	Instructions uint64
	// ReadBytesFrom[m] is bytes threads on this socket read from socket m's
	// memory (m == self means local reads).
	ReadBytesFrom []uint64
	// WriteBytesTo[m] is bytes threads on this socket wrote to socket m's
	// memory.
	WriteBytesTo []uint64
	// RandomAccesses issued by threads on this socket.
	RandomAccesses uint64
	// Accesses issued by threads on this socket.
	Accesses uint64
}

// LocalReadBytes is bytes served by this socket's own memory.
func (t *SocketTotals) LocalReadBytes(self int) uint64 { return t.ReadBytesFrom[self] }

// RemoteReadBytes is bytes served by all other sockets' memory.
func (t *SocketTotals) RemoteReadBytes(self int) uint64 {
	var sum uint64
	for m, b := range t.ReadBytesFrom {
		if m != self {
			sum += b
		}
	}
	return sum
}

// Fabric aggregates shards machine-wide, mimicking a PCM snapshot.
type Fabric struct {
	sockets int
	shards  []*Shard
}

// NewFabric creates a fabric for a machine with the given socket count.
func NewFabric(sockets int) *Fabric {
	if sockets <= 0 {
		panic("counters: sockets must be positive")
	}
	return &Fabric{sockets: sockets}
}

// NewShard allocates and registers a shard for a worker on socket.
func (f *Fabric) NewShard(socket int) *Shard {
	sh := NewShard(socket, f.sockets)
	f.shards = append(f.shards, sh)
	return sh
}

// Reset zeroes every registered shard.
func (f *Fabric) Reset() {
	for _, sh := range f.shards {
		sh.Reset()
	}
}

// Snapshot aggregates all shards into per-socket totals. It must be called
// only when no worker is concurrently writing (i.e. between parallel
// phases), matching how PCM deltas bracket a measured region.
func (f *Fabric) Snapshot() Snapshot {
	snap := Snapshot{Sockets: make([]SocketTotals, f.sockets)}
	for i := range snap.Sockets {
		snap.Sockets[i].ReadBytesFrom = make([]uint64, f.sockets)
		snap.Sockets[i].WriteBytesTo = make([]uint64, f.sockets)
	}
	for _, sh := range f.shards {
		dst := &snap.Sockets[sh.Socket]
		dst.Instructions += sh.Instructions
		dst.RandomAccesses += sh.RandomAccesses
		dst.Accesses += sh.Accesses
		dst.ReadBytesFrom[sh.Socket] += sh.LocalReadBytes
		for m, b := range sh.remoteBySrc {
			dst.ReadBytesFrom[m] += b
		}
		for m, b := range sh.writesByDst {
			dst.WriteBytesTo[m] += b
		}
	}
	return snap
}

// Snapshot is an aggregated, immutable view of the fabric at one instant.
type Snapshot struct {
	Sockets []SocketTotals
}
