// The representation: a SmartArray's storage is a repr snapshot — one
// encoding.ChunkCodec per replica of a placed region, each reading the
// payload words of its own replica — swapped atomically by Reencode (the
// representation axis of §6's on-the-fly adaptation) and Migrate (the
// placement axis). Readers load the snapshot once per call and finish on
// whatever representation they started with: they hold a reader pin
// (memsim.Memory.Pin) while they read, and the old region, retired by the
// swap, is unmapped only once no pin is held — so both are safe under
// concurrent scans.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"smartarrays/internal/encoding"
	"smartarrays/internal/memsim"
)

// repr is one immutable representation snapshot.
type repr struct {
	// region is the placed storage: every replica holds the whole payload.
	region *memsim.Region
	// codecs[s] reads replica s of region; one entry unless Replicated.
	// Nil once the array is freed, so any read of a freed array panics.
	codecs []encoding.ChunkCodec
	// cost summarizes the encoding for the per-codec perfmodel entries.
	cost encoding.CostStats
	// zones is the optional zone index over this representation's values
	// (see zonemap.go); nil until BuildZoneIndex. It lives on the snapshot
	// so a representation swap can never pair stale bounds with new
	// payload — readers get both or neither from one Load.
	zones atomic.Pointer[encoding.ZoneIndex]
}

// bind makes the snapshot for region, whose replicas each hold cc's
// payload: one codec per replica, each bound to its own copy.
func bind(region *memsim.Region, cc encoding.ChunkCodec) *repr {
	rp := &repr{region: region, cost: encoding.CostStatsOf(cc)}
	for _, replica := range region.AllReplicas() {
		rp.codecs = append(rp.codecs, cc.Bind(replica))
	}
	return rp
}

// codec returns the codec a reader on socket uses: its local replica's
// when replicated, the single copy's otherwise (paper: getReplica()).
func (rp *repr) codec(socket int) encoding.ChunkCodec {
	if len(rp.codecs) > 1 {
		return rp.codecs[socket]
	}
	return rp.codecs[0]
}

// on returns the codec bound to replica, a slice GetReplica returned. A
// replica of an earlier representation reads through the current one:
// the values are the same.
func (rp *repr) on(replica []uint64) encoding.ChunkCodec {
	for _, c := range rp.codecs[1:] {
		if &c.PayloadWords()[0] == &replica[0] {
			return c
		}
	}
	return rp.codecs[0]
}

// place allocates a region with placement p whose every replica holds a
// copy of cc's payload, and binds it.
func (a *SmartArray) place(cc encoding.ChunkCodec, p memsim.Placement, socket int) (*repr, error) {
	words := cc.PayloadWords()
	region, err := a.mem.Alloc(uint64(len(words)), p, socket)
	if err != nil {
		return nil, err
	}
	for _, replica := range region.AllReplicas() {
		copy(replica, words)
	}
	return bind(region, cc), nil
}

// EncodingKind is the array's current representation (BitPacked at the
// logical width for a freshly allocated array).
func (a *SmartArray) EncodingKind() encoding.Kind {
	return a.rep.Load().cost.Kind
}

// EncodingStats summarizes the current representation for the cost model.
func (a *SmartArray) EncodingStats() encoding.CostStats {
	return a.rep.Load().cost
}

// DecodeAll materializes the array's logical content, whatever the
// current representation. Intended for re-encoding and serialization,
// not hot paths.
func (a *SmartArray) DecodeAll() []uint64 {
	a.mem.Pin()
	defer a.mem.Unpin()
	return encoding.Decode(a.rep.Load().codecs[0])
}

// build encodes values as kind. BitPacked packs at the array's logical
// width, the one its writes use, so re-encoding back to it restores a
// writable array.
func (a *SmartArray) build(kind encoding.Kind, values []uint64) (encoding.ChunkCodec, error) {
	if kind == encoding.BitPacked {
		return encoding.NewBitPackedAt(a.Bits(), values), nil
	}
	enc, err := encoding.Build(kind, values)
	if err != nil {
		return nil, err
	}
	return enc.(encoding.ChunkCodec), nil
}

// Reencode migrates the array to the given encoding, returning the
// traffic the re-encoding generates (read the old payload, write the
// new) — the representation analogue of Migrate. The new payload is
// placed like the old one and first-touched from socket. Concurrent
// readers are safe: they finish on the snapshot they loaded. Re-encoding
// to the current representation is a no-op.
func (a *SmartArray) Reencode(kind encoding.Kind, socket int) (trafficBytes uint64, err error) {
	a.reencodeMu.Lock()
	defer a.reencodeMu.Unlock()
	old := a.rep.Load()
	if old.codecs == nil {
		return 0, errors.New("core: Reencode on a freed array")
	}
	if old.cost.Kind == kind {
		return 0, nil
	}
	values := encoding.Decode(old.codecs[0])
	cc, err := a.build(kind, values)
	if err != nil {
		return 0, fmt.Errorf("core: re-encoding to %v: %w", kind, err)
	}
	next, err := a.place(cc, old.region.Placement(), socket)
	if err != nil {
		return 0, fmt.Errorf("core: re-encoding to %v: %w", kind, err)
	}
	next.region.TouchRange(0, next.region.Words(), socket)
	// Rebuild the zone index from the already-decoded values — a free
	// extra pass — so the new snapshot carries fresh bounds atomically.
	if old.zones.Load() != nil {
		next.zones.Store(encoding.NewZoneIndexFromValues(values))
	}
	a.rep.Store(next)
	a.gen.Add(1)
	old.region.Free()
	a.reg.SetEncoding(a.tel.ID(), kind.String(), next.cost.CodeBits)
	return old.region.FootprintBytes() + next.region.FootprintBytes(), nil
}

// Migrate moves the array to a new placement, returning the traffic the
// restructuring generates (§6's on-the-fly adaptation): it publishes a
// new snapshot whose region holds the payload in the new shape, and frees
// the old one — so, like Reencode, it is safe under concurrent readers.
// Pages start untouched under OSDefault.
func (a *SmartArray) Migrate(p memsim.Placement, socket int) (trafficBytes uint64, err error) {
	a.reencodeMu.Lock()
	defer a.reencodeMu.Unlock()
	old := a.rep.Load()
	if old.codecs == nil {
		return 0, errors.New("core: Migrate on a freed array")
	}
	if p == old.region.Placement() && (p != memsim.SingleSocket || socket == old.region.PinnedSocket()) {
		return 0, nil
	}
	next, err := a.place(old.codecs[0], p, socket)
	if err != nil {
		return 0, fmt.Errorf("core: migrating to %v: %w", p, err)
	}
	next.zones.Store(old.zones.Load())
	a.rep.Store(next)
	old.region.Free()
	a.reg.SetPlacement(a.tel.ID(), p.String())
	bytes := old.region.Words() * 8
	switch p {
	case memsim.Replicated:
		return 2 * bytes * uint64(a.mem.Spec().Sockets-1), nil
	case memsim.OSDefault:
		return 0, nil
	default: // pages move through the interconnect
		return 2 * bytes, nil
	}
}
