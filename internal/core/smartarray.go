// Package core implements smart arrays, the paper's primary contribution:
// an array abstraction whose "smart functionalities" — NUMA-aware data
// placement (§4.1) and bit compression (§4.2) — trade hardware resources
// against each other behind a single unified API (§4.3, Figure 9).
//
// A SmartArray owns a placed memsim.Region: replication really
// materializes one copy per socket, interleaving really round-robins pages,
// and every encoding's payload really lives in those words. The class
// hierarchy of the paper's Figure 9 (abstract SmartArray,
// BitCompressedArray<BITS>, specialized <32>/<64>, and the iterator family)
// maps to a single struct reading through one encoding.ChunkCodec per
// replica — bit packing at the array's width until a Reencode — plus
// concrete iterator types selected by the bound layout, mirroring how the
// paper's entry points branch on the profiled bit count.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/counters"
	"smartarrays/internal/encoding"
	"smartarrays/internal/memsim"
	"smartarrays/internal/obs"
	"smartarrays/internal/perfmodel"
)

// Config describes a smart array to allocate: its length, compression
// width, and NUMA placement. It corresponds to the parameter list of the
// paper's SmartArray::allocate(length, replicated, interleaved, pinned,
// bits); placements are mutually exclusive there too, hence a single enum.
type Config struct {
	// Length is the number of elements.
	Length uint64
	// Bits is the element width in [1,64]; 64 and 32 select the
	// specialized uncompressed representations.
	Bits uint
	// Placement is the NUMA placement policy.
	Placement memsim.Placement
	// Socket is the target socket for SingleSocket placement.
	Socket int
	// Name labels the array in the telemetry registry ("ranks", "edge",
	// a column name); empty gets a generated "array-<id>" label. Unused
	// when no registry is attached.
	Name string
}

// SmartArray is a placed, optionally bit-compressed array of unsigned
// integers. All methods are safe for concurrent readers; concurrent writers
// must synchronize externally (the paper's arrays are read-only after
// initialization, §4.2).
//
// The array's representation — its region and the codec bound to each
// replica — lives in an atomically swapped repr snapshot (see
// reencode.go). Every read path loads the snapshot once per call, so a
// live re-encode or migration under concurrent scans is safe: in-flight
// readers finish on the representation they started with.
type SmartArray struct {
	mem *memsim.Memory
	// codec is the bit packing at the array's logical width: the layout
	// Allocate binds and the one the writers (Init, InitRange, InitAtomic)
	// pack with. Reads go through the snapshot's codecs.
	codec  bitpack.Codec
	length uint64
	// rep is the current representation; never nil after Allocate.
	rep atomic.Pointer[repr]
	// reencodeMu serializes representation and placement changes
	// (Reencode, Migrate) against each other; readers never take it.
	reencodeMu sync.Mutex
	// reg/tel are the array's telemetry registration (see telemetry.go):
	// the registry it joined and its live counter block, both nil when
	// unregistered, which keeps every accounting hook's telemetry branch
	// to a single nil check.
	reg *obs.ArrayRegistry
	tel *obs.ArrayCounters
	// gen counts content and representation revisions: one per write
	// call (openWrite; not per element written) and one per Reencode swap.
	// External caches key on it: any revision makes every old key
	// unreachable, so stale results can never serve.
	gen atomic.Uint64
}

// Generation is the array's revision counter — see the gen field.
func (a *SmartArray) Generation() uint64 { return a.gen.Load() }

// Allocate creates a smart array per cfg in the given simulated memory.
func Allocate(mem *memsim.Memory, cfg Config) (*SmartArray, error) {
	if cfg.Length == 0 {
		return nil, errors.New("core: Length must be positive")
	}
	codec, err := bitpack.New(cfg.Bits)
	if err != nil {
		return nil, err
	}
	region, err := mem.Alloc(codec.WordsFor(cfg.Length), cfg.Placement, cfg.Socket)
	if err != nil {
		return nil, fmt.Errorf("core: allocating %d elements at %d bits: %w", cfg.Length, cfg.Bits, err)
	}
	a := &SmartArray{mem: mem, codec: codec, length: cfg.Length}
	a.rep.Store(bind(region, encoding.BitPackedOn(codec, region.Replica(0), cfg.Length)))
	a.register(cfg.Name)
	return a, nil
}

// AllocateFor creates a smart array sized and compressed for values, using
// the minimum width that fits the largest value (the paper's rule), then
// initializes it from socket.
func AllocateFor(mem *memsim.Memory, values []uint64, placement memsim.Placement, socket int) (*SmartArray, error) {
	a, err := Allocate(mem, Config{
		Length:    uint64(len(values)),
		Bits:      bitpack.MinBitsFor(values),
		Placement: placement,
		Socket:    socket,
	})
	if err != nil {
		return nil, err
	}
	a.InitRange(socket, 0, values)
	return a, nil
}

// Free releases the array's simulated memory and retires its payload,
// which is unmapped once no reader pin is held; any later read panics.
// The array's telemetry profile, if any, leaves the registry.
func (a *SmartArray) Free() {
	a.reencodeMu.Lock()
	rp := a.rep.Load()
	rp.region.Free()
	a.rep.Store(&repr{region: rp.region, cost: rp.cost})
	a.reencodeMu.Unlock()
	a.reg.Unregister(a.tel.ID())
}

// Memory is the simulated memory the array's regions come from — the one
// a reader outside a parallel loop pins (memsim.Memory.Pin) while it
// holds a View, replica or iterator of the array.
func (a *SmartArray) Memory() *memsim.Memory { return a.mem }

// Length is the number of elements (paper: getLength()).
func (a *SmartArray) Length() uint64 { return a.length }

// Bits is the element width (paper: getBits()).
func (a *SmartArray) Bits() uint { return a.codec.Bits() }

// Placement is the array's NUMA placement policy.
func (a *SmartArray) Placement() memsim.Placement { return a.rep.Load().region.Placement() }

// Region exposes the current placed region, for traffic accounting and
// inspection.
func (a *SmartArray) Region() *memsim.Region { return a.rep.Load().region }

// Codec exposes the bit-compression codec at the array's logical width
// (the writers' layout; a re-encoding's code width is in EncodingStats).
func (a *SmartArray) Codec() bitpack.Codec { return a.codec }

// FootprintBytes is the simulated DRAM consumed, including replicas.
func (a *SmartArray) FootprintBytes() uint64 { return a.rep.Load().region.FootprintBytes() }

// CompressedBytes is the payload size of one copy of the array in its
// current representation.
func (a *SmartArray) CompressedBytes() uint64 { return a.rep.Load().region.Words() * 8 }

// UncompressedBytes is what one copy would occupy at 64 bits per element.
func (a *SmartArray) UncompressedBytes() uint64 { return a.length * 8 }

// GetReplica returns the payload words a reader on socket should use:
// the local replica when replicated, the single copy otherwise (paper:
// getReplica()). Reading the words outside a parallel loop needs a pin
// on a.Memory() while a concurrent Reencode, Migrate or Free can retire
// them (see View).
func (a *SmartArray) GetReplica(socket int) []uint64 {
	return a.rep.Load().region.Replica(socket)
}

// Get extracts the element at index through the codec bound to replica
// (paper: get(index, replica), Function 1). Fetch the replica once per
// scan with GetReplica, not per element. Get takes no pin: replica was
// loaded before the call, so the caller pins (or runs inside a parallel
// loop) for as long as it holds it, as for GetReplica and View.
func (a *SmartArray) Get(replica []uint64, index uint64) uint64 {
	a.checkIndex(index)
	return a.rep.Load().on(replica).Get(index)
}

// GetFrom is Get with replica selection folded in, for call sites that do
// occasional random accesses rather than scans. It loads the
// representation under a pin of its own, so a caller outside a parallel
// loop may race it against Reencode, Migrate or Free.
func (a *SmartArray) GetFrom(socket int, index uint64) uint64 {
	a.checkIndex(index)
	a.mem.Pin()
	defer a.mem.Unpin()
	return a.rep.Load().codec(socket).Get(index)
}

func (a *SmartArray) checkIndex(index uint64) {
	if index >= a.length {
		panic(fmt.Sprintf("core: index %d out of range [0,%d)", index, a.length))
	}
}

// Init sets the element at index to value in every replica (paper: init,
// Function 2's replica loop), recording a first touch of the containing
// page for OS-default placement. socket is the initializing thread's
// socket. Init is not safe for concurrent writers to the same word; the
// paper's workloads initialize ranges in parallel but disjointly. Arrays
// are read-only once re-encoded. Init is the one-element form; anything
// that fills a range uses InitRange or a write view (WriteAs). Writers
// take no reader pin: a write concurrent with Reencode, Migrate or Free
// would be lost with the old representation anyway, so the caller orders
// them.
func (a *SmartArray) Init(socket int, index, value uint64) {
	for _, replica := range a.openWrite("Init", socket, index, index+1) {
		a.codec.Set(replica, index, value)
	}
}

// InitAtomic is Init with the CAS-based thread-safe writer (§4.2):
// concurrent callers may write elements that share a packed word. Like
// Init, it takes no reader pin.
func (a *SmartArray) InitAtomic(socket int, index, value uint64) {
	for _, replica := range a.openWrite("InitAtomic", socket, index, index+1) {
		a.codec.SetAtomic(replica, index, value)
	}
}

// openWrite is the write contract, paid once per write call whatever the
// range covers: it checks [lo, hi) against the array, refuses a
// re-encoded array (only the BitPacked layout the writers pack with
// a.codec is writable), drops any attached zone index, bumps Generation
// so result caches keyed on it can never serve stale values, and
// first-touches the range's pages from socket. It returns every replica
// the caller must write. An empty range is a no-op that returns none.
func (a *SmartArray) openWrite(op string, socket int, lo, hi uint64) [][]uint64 {
	if lo > hi || hi > a.length {
		panic(fmt.Sprintf("core: range [%d,%d) out of bounds [0,%d)", lo, hi, a.length))
	}
	if lo == hi {
		return nil
	}
	rp := a.rep.Load()
	if rp.codecs[0].Kind() != encoding.BitPacked {
		panic("core: " + op + " on a re-encoded array (re-encoded arrays are read-only)")
	}
	if rp.zones.Load() != nil {
		rp.zones.Store(nil)
	}
	a.gen.Add(1)
	loWord, hiWord := a.codec.WordOf(lo), a.codec.WordOf(hi-1)+1
	rp.region.TouchRange(loWord, hiWord-loWord, socket)
	return rp.region.AllReplicas()
}

// InitRange sets elements [lo, lo+len(values)) in every replica — the
// batch form of Init, leaving the array, its first-touch page map and its
// zone index exactly as len(values) Init calls from socket would, but
// paying openWrite once per call (Generation counts revisions, not
// elements). It packs its whole chunks with one bitpack.Codec.Pack into
// the first replica (at 64 bits one copy), copies the packed words to the
// others, and writes the ragged head and tail with Codec.Set. Concurrent
// callers follow Init's contract: ranges must not share a packed word.
// Whole chunks are stored without being read and ragged ends touch only
// the words their elements occupy, so a writer never touches a word
// outside its range. An empty values is a no-op.
func (a *SmartArray) InitRange(socket int, lo uint64, values []uint64) {
	hi := lo + uint64(len(values))
	replicas := a.openWrite("InitRange", socket, lo, hi)
	headEnd, chunkLo, chunkHi, tailStart := rangeParts(lo, hi)
	if chunkLo < chunkHi {
		first := replicas[0]
		a.codec.Pack(first, chunkLo, values[headEnd-lo:tailStart-lo])
		wpc := a.codec.WordsPerChunk()
		for _, replica := range replicas[1:] {
			copy(replica[chunkLo*wpc:chunkHi*wpc], first[chunkLo*wpc:chunkHi*wpc])
		}
	}
	for _, replica := range replicas {
		for i := lo; i < headEnd; i++ {
			a.codec.Set(replica, i, values[i-lo])
		}
		for i := tailStart; i < hi; i++ {
			a.codec.Set(replica, i, values[i-lo])
		}
	}
}

// WordOf returns the index of the payload word holding element index —
// used for page touch accounting.
func (a *SmartArray) WordOf(index uint64) uint64 {
	w, _ := a.WordRange(index, index+1)
	return w
}

// WordRange returns the half-open range of payload words covering
// elements [lo, hi) in the current representation.
func (a *SmartArray) WordRange(lo, hi uint64) (loWord, hiWord uint64) {
	return a.rep.Load().codecs[0].WordRange(lo, hi)
}

// AccountScan charges the traffic and instructions of sequentially reading
// elements [lo, hi) to the shard: compressed payload bytes split across
// serving sockets by the placement's page map, plus the width-dependent
// per-element decode cost. Workloads call this once per loop batch.
func (a *SmartArray) AccountScan(sh *counters.Shard, lo, hi uint64) {
	a.accountStream(sh, lo, hi, perfmodel.CostEncodedScan, obs.AccessScan)
}

// AccountReduce charges the traffic and instructions of a fused reduction
// over elements [lo, hi) (ReduceRange, or MaskRange and a masked fold):
// the same streaming payload traffic as a scan, but the fused per-element
// decode+fold cost instead of the iterator's.
func (a *SmartArray) AccountReduce(sh *counters.Shard, lo, hi uint64) {
	a.accountStream(sh, lo, hi, perfmodel.CostEncodedReduce, obs.AccessReduce)
}

// accountStream charges a sequential read of elements [lo, hi): the
// payload words they map to, split by the page map, and cost instructions
// per element, attributed to the array as method m.
func (a *SmartArray) accountStream(sh *counters.Shard, lo, hi uint64, cost func(encoding.CostStats) float64, m obs.AccessMethod) {
	if lo >= hi {
		return
	}
	rp := a.rep.Load()
	t := a.track(sh)
	loWord, hiWord := rp.codecs[0].WordRange(lo, hi)
	rp.region.AccountScan(sh, loWord, hiWord-loWord)
	sh.Access(hi - lo)
	sh.Instr(uint64(float64(hi-lo) * cost(rp.cost)))
	t.done(sh, m, hi-lo)
}

// AccountInit charges the traffic and instructions of initializing
// elements [lo, hi): writes to every replica plus pack cost.
func (a *SmartArray) AccountInit(sh *counters.Shard, lo, hi uint64) {
	if lo >= hi {
		return
	}
	rp := a.rep.Load()
	t := a.track(sh)
	loWord, hiWord := rp.codecs[0].WordRange(lo, hi)
	rp.region.AccountWrite(sh, loWord, hiWord-loWord)
	n := hi - lo
	sh.Instr(uint64(float64(n) * perfmodel.CostInit(a.codec.Bits()) * float64(rp.region.Replicas())))
	t.done(sh, obs.AccessInit, n)
}
