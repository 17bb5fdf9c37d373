// Package memsim provides page-granular simulated NUMA memory.
//
// On Linux the paper controls physical data placement with OS facilities:
// first-touch page faulting, explicit pinning (mbind), round-robin
// interleaving, and manual replication (§2.1, §4.1). A one-node host has
// no placement for those calls to change, so this package reproduces the
// same placement semantics at the library level: a Region owns native
// backing storage plus an explicit map from pages to home sockets, and
// replication really materializes one full copy per socket.
//
// The storage is native memory, as the paper's arrays live outside any
// managed heap (§3): every replica is an anonymous private mapping (see
// mapWords), viewed as []uint64, which the Go collector neither traces
// nor paces on. Mappings are released by hand, under one grace rule:
// Region.Free retires a region, and a retired region is unmapped only
// once no reader can still hold its words — no reader pin (Memory.Pin)
// is held. Freed memory is therefore never read: a reader that breaks
// the rule faults instead of reading stale words. Race builds keep the
// payload on the Go heap instead (map_other.go), where the race detector
// can see it.
//
// Regions also account the traffic that workloads generate against the
// counters fabric: a scan over an interleaved region splits its bytes
// across socket memories exactly as the page map dictates, which is what
// the performance model and the adaptivity engine consume.
package memsim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"smartarrays/internal/counters"
	"smartarrays/internal/machine"
	"smartarrays/internal/obs"
)

// PageBytes is the simulated OS page size (4 KiB, Linux default).
const PageBytes = 4096

// PageWords is the page size in 64-bit words.
const PageWords = PageBytes / 8

// Placement enumerates the paper's NUMA-aware data placements (§4.1).
type Placement int

const (
	// OSDefault places each page on the socket of the thread that first
	// touches it (Linux first-touch policy).
	OSDefault Placement = iota
	// SingleSocket pins every page of the region to one chosen socket.
	SingleSocket
	// Interleaved distributes pages round-robin across all sockets.
	Interleaved
	// Replicated materializes one full copy of the region per socket;
	// readers always hit their local replica.
	Replicated
)

// String returns the placement name as used in the paper's figures.
func (p Placement) String() string {
	switch p {
	case OSDefault:
		return "OS default"
	case SingleSocket:
		return "single socket"
	case Interleaved:
		return "interleaved"
	case Replicated:
		return "replicated"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

const untouched = 0xFF // page not yet first-touched (OSDefault)

// Memory is the machine-wide allocator that tracks per-socket DRAM usage.
// It is safe for concurrent allocation from multiple goroutines.
type Memory struct {
	spec *machine.Spec

	mu          sync.Mutex
	used        []uint64             // bytes allocated per socket
	capOverride uint64               // per-socket capacity override; 0 = use spec
	regions     map[*Region]struct{} // live regions: AutoNUMABalance's work list
	// retired lists the freed regions still mapped (see grace.go).
	retired []*Region

	// pins counts the readers that may hold payload words (Pin); a retired
	// region is unmapped only while it is zero.
	pins atomic.Int64
	// mappedBytes is the payload mapped for live and retired regions;
	// retiredBytes the part of it that waits for pins to drop to zero.
	mappedBytes, retiredBytes atomic.Int64

	// autoNUMAFlag gates access tallying on the hot accounting path (see
	// autonuma.go); atomic so readers skip the mutex.
	autoNUMAFlag atomic.Bool

	// arrays is the array-telemetry registry: smart arrays allocated from
	// this memory register with it and account into the counter blocks it
	// hands them. nil = telemetry off.
	arrays atomic.Pointer[obs.ArrayRegistry]
}

// New creates a Memory for the given machine.
func New(spec *machine.Spec) *Memory {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return &Memory{spec: spec, used: make([]uint64, spec.Sockets)}
}

// SetCapacityBytes overrides the simulated per-socket DRAM capacity.
// Region backing storage is real host memory, so experiments that want to
// exercise capacity pressure (the adaptivity engine's "space for
// replication" branches) shrink the simulated capacity instead of
// allocating the paper's 128 GB for real.
func (m *Memory) SetCapacityBytes(perSocket uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.capOverride = perSocket
}

// CapacityBytes is the simulated per-socket DRAM capacity in effect.
func (m *Memory) CapacityBytes() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.capacityLocked()
}

func (m *Memory) capacityLocked() uint64 {
	if m.capOverride != 0 {
		return m.capOverride
	}
	return m.spec.MemPerSocketBytes()
}

// ArrayRegistry is the attached array-telemetry registry (nil when off).
func (m *Memory) ArrayRegistry() *obs.ArrayRegistry { return m.arrays.Load() }

// AttachArrayRegistry is the storage behind rts.Runtime.SetArrayProfiling,
// the switch for array telemetry; call that instead.
func (m *Memory) AttachArrayRegistry(reg *obs.ArrayRegistry) { m.arrays.Store(reg) }

// Spec returns the machine this memory belongs to.
func (m *Memory) Spec() *machine.Spec { return m.spec }

// UsedBytes reports the bytes currently allocated on socket.
func (m *Memory) UsedBytes(socket int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used[socket]
}

// TotalUsedBytes reports the bytes currently allocated machine-wide.
func (m *Memory) TotalUsedBytes() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum uint64
	for _, u := range m.used {
		sum += u
	}
	return sum
}

// CanAlloc reports whether a region of the given size and placement fits in
// the remaining per-socket DRAM. This backs the adaptivity engine's "space
// for replication" tests (Fig. 13).
func (m *Memory) CanAlloc(words uint64, p Placement, socket int) bool {
	bytes := words * 8
	m.mu.Lock()
	defer m.mu.Unlock()
	cap := m.capacityLocked()
	switch p {
	case Replicated:
		for s := 0; s < m.spec.Sockets; s++ {
			if m.used[s]+bytes > cap {
				return false
			}
		}
		return true
	case SingleSocket:
		return m.used[socket]+bytes <= cap
	default: // OSDefault, Interleaved: spread across sockets
		per := bytes / uint64(m.spec.Sockets)
		for s := 0; s < m.spec.Sockets; s++ {
			if m.used[s]+per > cap {
				return false
			}
		}
		return true
	}
}

// Alloc allocates a region of words 64-bit words with the given placement.
// socket selects the target for SingleSocket (ignored otherwise).
func (m *Memory) Alloc(words uint64, p Placement, socket int) (*Region, error) {
	if words == 0 {
		return nil, errors.New("memsim: zero-length region")
	}
	if p == SingleSocket && (socket < 0 || socket >= m.spec.Sockets) {
		return nil, fmt.Errorf("memsim: socket %d out of range [0,%d)", socket, m.spec.Sockets)
	}
	if !m.CanAlloc(words, p, socket) {
		return nil, fmt.Errorf("memsim: out of simulated memory for %d words with placement %v", words, p)
	}

	r := &Region{mem: m, placement: p, socket: socket, words: words}
	copies := 1
	switch p {
	case Replicated:
		copies = m.spec.Sockets
	case OSDefault:
		r.pageSocket = untouchedPages(int((words + PageWords - 1) / PageWords))
		r.tally = &autoTally{}
	}
	for len(r.replicas) < copies {
		replica, err := mapWords(words)
		if err != nil {
			r.unmap()
			return nil, fmt.Errorf("memsim: mapping %d words: %w", words, err)
		}
		r.replicas = append(r.replicas, replica)
		m.mappedBytes.Add(int64(words * 8))
	}
	m.mu.Lock()
	m.accountLocked(r, +1)
	if m.regions == nil {
		m.regions = map[*Region]struct{}{}
	}
	m.regions[r] = struct{}{}
	m.mu.Unlock()
	return r, nil
}

// accountLocked adds (sign=+1) or removes (sign=-1) r's footprint; the
// caller holds m.mu.
func (m *Memory) accountLocked(r *Region, sign int64) {
	bytes := r.words * 8
	apply := func(s int, b uint64) {
		if sign > 0 {
			m.used[s] += b
		} else {
			m.used[s] -= b
		}
	}
	switch r.placement {
	case Replicated:
		for s := 0; s < m.spec.Sockets; s++ {
			apply(s, bytes)
		}
	case SingleSocket:
		apply(r.socket, bytes)
	default:
		per := bytes / uint64(m.spec.Sockets)
		rem := bytes - per*uint64(m.spec.Sockets)
		for s := 0; s < m.spec.Sockets; s++ {
			b := per
			if s == 0 {
				b += rem
			}
			apply(s, b)
		}
	}
}

// Region is a placed allocation of 64-bit words. The backing storage is
// real native memory, one mapping per copy; placement decides which
// socket's memory "serves" each word when traffic is accounted, and for
// Replicated there is one physical copy per socket.
type Region struct {
	mem       *Memory
	placement Placement
	socket    int // SingleSocket target
	words     uint64

	// replicas[s] is socket s's copy when Replicated; otherwise
	// replicas[0] is the only copy. Each is a mapping of its own.
	replicas [][]uint64
	// pageSocket[p] is the home socket of page p under OSDefault;
	// untouched until first touch. Atomic because first touch is a race by
	// design: parallel initializers whose ranges meet inside a page both
	// touch it, and whoever gets there first homes it.
	pageSocket []atomic.Uint32
	// tally accumulates per-page access bytes for the AutoNUMA simulation
	// (OSDefault regions only; see autonuma.go).
	tally *autoTally

	freed atomic.Bool
}

// Free retires the region: its mappings, and with them its simulated
// DRAM, are released once no reader pin is held (see Memory.Pin). Readers pinned
// before the free — a scan that loaded the representation a Reencode or
// Migrate replaces — finish on the old words safely; a reader that holds
// the words without a pin must not outlive the free. A second Free is a
// no-op.
func (r *Region) Free() {
	if r.freed.Swap(true) {
		return
	}
	r.mem.retire(r)
}

// Placement returns the region's placement policy.
func (r *Region) Placement() Placement { return r.placement }

// PinnedSocket returns the SingleSocket target (meaningless otherwise).
func (r *Region) PinnedSocket() int { return r.socket }

// Words returns the region length in 64-bit words.
func (r *Region) Words() uint64 { return r.words }

// FootprintBytes is the total simulated DRAM consumed, including replicas.
func (r *Region) FootprintBytes() uint64 {
	if r.placement == Replicated {
		return r.words * 8 * uint64(r.mem.spec.Sockets)
	}
	return r.words * 8
}

// Replica returns the storage a reader on the given socket should use: its
// local copy for Replicated regions, the single copy otherwise. This is the
// paper's SmartArray::getReplica(). The words stay valid while the region
// is live, and after Free for as long as a reader pin taken before the
// free is held.
func (r *Region) Replica(readerSocket int) []uint64 {
	if r.placement == Replicated {
		return r.replicas[readerSocket]
	}
	return r.replicas[0]
}

// Replicas returns the number of physical copies.
func (r *Region) Replicas() int { return len(r.replicas) }

// AllReplicas returns every physical copy; writers must update all of them
// (paper Function 2 loops over replicas).
func (r *Region) AllReplicas() [][]uint64 { return r.replicas }

func (r *Region) firstTouch(page uint64, socket int) {
	if p := &r.pageSocket[page]; p.Load() == untouched {
		p.CompareAndSwap(untouched, uint32(socket))
	}
}

func untouchedPages(pages int) []atomic.Uint32 {
	m := make([]atomic.Uint32, pages)
	for i := range m {
		m[i].Store(untouched)
	}
	return m
}

// TouchRange records a first touch of every page in [startWord,
// startWord+nWords) by a thread on socket. Only meaningful for OSDefault
// regions; no-op otherwise.
func (r *Region) TouchRange(startWord, nWords uint64, socket int) {
	if r.placement != OSDefault || nWords == 0 {
		return
	}
	first := startWord / PageWords
	last := (startWord + nWords - 1) / PageWords
	for p := first; p <= last; p++ {
		r.firstTouch(p, socket)
	}
}

// HomeSocket returns the socket whose memory serves word for a reader on
// readerSocket. For Replicated regions that is always the reader's socket.
// Untouched OSDefault pages default to socket 0 (the kernel would place
// them on first access; queries before any touch are reads of zero pages).
func (r *Region) HomeSocket(word uint64, readerSocket int) int {
	switch r.placement {
	case Replicated:
		return readerSocket
	case SingleSocket:
		return r.socket
	case Interleaved:
		return int(word/PageWords) % r.mem.spec.Sockets
	default: // OSDefault
		s := r.pageSocket[word/PageWords].Load()
		if s == untouched {
			return 0
		}
		return int(s)
	}
}

// AccountScan charges a sequential read of nWords words starting at
// startWord to the shard, splitting bytes across serving sockets according
// to the page map.
func (r *Region) AccountScan(sh *counters.Shard, startWord, nWords uint64) {
	r.accountRange(sh, startWord, nWords, false)
}

// AccountWrite charges a sequential write of nWords words starting at
// startWord. Writes to Replicated regions are charged once per replica.
func (r *Region) AccountWrite(sh *counters.Shard, startWord, nWords uint64) {
	r.accountRange(sh, startWord, nWords, true)
}

func (r *Region) accountRange(sh *counters.Shard, startWord, nWords uint64, write bool) {
	if nWords == 0 {
		return
	}
	emit := func(socket int, bytes uint64) {
		if write {
			sh.Write(socket, bytes)
		} else {
			sh.Read(socket, bytes)
		}
	}
	switch r.placement {
	case Replicated:
		if write {
			// Every replica must be updated.
			for s := 0; s < r.mem.spec.Sockets; s++ {
				emit(s, nWords*8)
			}
		} else {
			emit(sh.Socket, nWords*8)
		}
	case SingleSocket:
		emit(r.socket, nWords*8)
	case Interleaved:
		r.accountInterleaved(emit, startWord, nWords)
	default: // OSDefault: walk the touched page map
		tallying := r.mem.autoNUMAFlag.Load()
		end := startWord + nWords
		for w := startWord; w < end; {
			pageEnd := (w/PageWords + 1) * PageWords
			if pageEnd > end {
				pageEnd = end
			}
			bytes := (pageEnd - w) * 8
			emit(r.HomeSocket(w, sh.Socket), bytes)
			if tallying {
				r.recordAccess(w/PageWords, sh.Socket, bytes)
			}
			w = pageEnd
		}
	}
}

// accountInterleaved splits a contiguous range across sockets analytically
// (full page cycles plus the partial head/tail) instead of walking pages.
func (r *Region) accountInterleaved(emit func(int, uint64), startWord, nWords uint64) {
	sockets := uint64(r.mem.spec.Sockets)
	perSocket := make([]uint64, sockets)
	end := startWord + nWords
	firstPage := startWord / PageWords
	lastPage := (end - 1) / PageWords
	if lastPage-firstPage < 2*sockets {
		// Few pages: walk them exactly.
		for w := startWord; w < end; {
			pageEnd := (w/PageWords + 1) * PageWords
			if pageEnd > end {
				pageEnd = end
			}
			perSocket[(w/PageWords)%sockets] += (pageEnd - w) * 8
			w = pageEnd
		}
	} else {
		// Many pages: whole pages distribute round-robin; account the
		// partial head and tail pages exactly, the middle analytically.
		head := (firstPage+1)*PageWords - startWord
		perSocket[firstPage%sockets] += head * 8
		tail := end - lastPage*PageWords
		perSocket[lastPage%sockets] += tail * 8
		fullPages := lastPage - firstPage - 1
		per := fullPages / sockets
		rem := fullPages % sockets
		for i := uint64(0); i < sockets; i++ {
			n := per
			if i < rem {
				n++
			}
			// Rotate so the distribution starts after the head page.
			s := (firstPage + 1 + i) % sockets
			perSocket[s] += n * PageWords * 8
		}
	}
	for s, b := range perSocket {
		if b > 0 {
			emit(s, b)
		}
	}
}

// AccountRandom charges n random single-element reads of elemBytes each.
// Bytes are spread across serving sockets according to the placement's
// steady-state distribution (replicated: all local; single socket: all to
// the pinned socket; interleaved/OS default: uniform).
func (r *Region) AccountRandom(sh *counters.Shard, n, elemBytes uint64) {
	if n == 0 {
		return
	}
	sh.Random(n)
	total := n * elemBytes
	switch r.placement {
	case Replicated:
		sh.Read(sh.Socket, total)
	case SingleSocket:
		sh.Read(r.socket, total)
	default:
		sockets := uint64(r.mem.spec.Sockets)
		per := total / sockets
		rem := total - per*sockets
		for s := uint64(0); s < sockets; s++ {
			b := per
			if s == 0 {
				b += rem
			}
			if b > 0 {
				sh.Read(int(s), b)
			}
		}
	}
}
