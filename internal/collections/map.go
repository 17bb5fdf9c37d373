package collections

import (
	"errors"
	"fmt"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/core"
	"smartarrays/internal/memsim"
)

// SmartMap is a read-optimized open-addressing hash map whose buckets
// live in smart arrays: a 1-bit occupancy array, a bit-compressed key
// array, and a bit-compressed value array. Collisions probe linearly, so
// they stay on the same cache lines / pages — the data-locality argument
// of §7. The map is built once (Put) and then read concurrently (Get);
// like smart arrays themselves, concurrent writes require external
// synchronization.
type SmartMap struct {
	occupied *core.SmartArray // 1 bit per slot
	keys     *core.SmartArray
	vals     *core.SmartArray
	mask     uint64
	size     uint64
	socket   int
}

// maxLoadNum/maxLoadDen cap the load factor at 70%.
const (
	maxLoadNum = 7
	maxLoadDen = 10
)

// NewSmartMap creates a map with capacity for at least n entries, with
// keys up to maxKey and values up to maxValue (the widths of the packed
// arrays — the paper's minimum-bits rule applied per column).
func NewSmartMap(mem *memsim.Memory, n uint64, maxKey, maxValue uint64, placement memsim.Placement, socket int) (*SmartMap, error) {
	if n == 0 {
		return nil, errors.New("collections: empty map capacity")
	}
	slots := uint64(16)
	for slots*maxLoadNum/maxLoadDen < n {
		slots <<= 1
	}
	m := &SmartMap{mask: slots - 1, socket: socket}
	alloc := func(bits uint) (*core.SmartArray, error) {
		return core.Allocate(mem, core.Config{
			Length: slots, Bits: bits, Placement: placement, Socket: socket,
		})
	}
	var err error
	if m.occupied, err = alloc(1); err != nil {
		return nil, err
	}
	if m.keys, err = alloc(bitpack.MinBits(maxKey)); err != nil {
		m.Free()
		return nil, err
	}
	if m.vals, err = alloc(bitpack.MinBits(maxValue)); err != nil {
		m.Free()
		return nil, err
	}
	return m, nil
}

// Free releases all backing arrays.
func (m *SmartMap) Free() {
	for _, a := range []*core.SmartArray{m.occupied, m.keys, m.vals} {
		if a != nil {
			a.Free()
		}
	}
	m.occupied, m.keys, m.vals = nil, nil, nil
}

// Len is the number of entries.
func (m *SmartMap) Len() uint64 { return m.size }

// Slots is the bucket count.
func (m *SmartMap) Slots() uint64 { return m.mask + 1 }

// PayloadBytes is the packed storage of one copy of all three arrays.
func (m *SmartMap) PayloadBytes() uint64 {
	return m.occupied.CompressedBytes() + m.keys.CompressedBytes() + m.vals.CompressedBytes()
}

// hash is a 64-bit finalizer (splitmix64's mixer).
func hash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// Put inserts or updates a key (build phase; not concurrency-safe).
func (m *SmartMap) Put(key, value uint64) error {
	if !m.keys.Codec().Fits(key) {
		return fmt.Errorf("collections: key %d exceeds the map's %d-bit key width", key, m.keys.Bits())
	}
	if !m.vals.Codec().Fits(value) {
		return fmt.Errorf("collections: value %d exceeds the map's %d-bit value width", value, m.vals.Bits())
	}
	occRep := m.occupied.GetReplica(m.socket)
	keyRep := m.keys.GetReplica(m.socket)
	for slot := hash(key) & m.mask; ; slot = (slot + 1) & m.mask {
		if m.occupied.Get(occRep, slot) == 0 {
			if (m.size+1)*maxLoadDen > m.Slots()*maxLoadNum {
				return errors.New("collections: map is full (fixed capacity)")
			}
			m.occupied.Init(m.socket, slot, 1)
			m.keys.Init(m.socket, slot, key)
			m.vals.Init(m.socket, slot, value)
			m.size++
			return nil
		}
		if m.keys.Get(keyRep, slot) == key {
			m.vals.Init(m.socket, slot, value)
			return nil
		}
	}
}

// Get looks up key for a reader on socket.
func (m *SmartMap) Get(socket int, key uint64) (value uint64, ok bool) {
	occRep := m.occupied.GetReplica(socket)
	keyRep := m.keys.GetReplica(socket)
	for slot := hash(key) & m.mask; ; slot = (slot + 1) & m.mask {
		if m.occupied.Get(occRep, slot) == 0 {
			return 0, false
		}
		if m.keys.Get(keyRep, slot) == key {
			return m.vals.Get(m.vals.GetReplica(socket), slot), true
		}
	}
}

// String summarizes the map.
func (m *SmartMap) String() string {
	return fmt.Sprintf("SmartMap(len=%d, slots=%d, key=%d bits, val=%d bits, %v)",
		m.size, m.Slots(), m.keys.Bits(), m.vals.Bits(), m.keys.Placement())
}
