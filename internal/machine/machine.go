// Package machine describes the NUMA machines that smart arrays run on.
//
// The paper's analysis (EuroSys'18, §2.1 and Table 1) depends on a small set
// of first-order machine characteristics: the socket/core/thread topology,
// the clock rate, the local and remote memory latencies, and the local and
// remote (interconnect) bandwidths. This package encodes exactly those
// characteristics in a declarative Spec, together with presets for the two
// Oracle X5-2 machines used in the paper's evaluation.
//
// Everything downstream — the memory simulator, the performance model, the
// runtime's thread pinning, and the adaptivity engine — consumes a Spec
// rather than probing the host, which is what makes the reproduction
// hardware-independent.
package machine

import (
	"errors"
	"fmt"
)

// GB is one gigabyte in bytes. Bandwidth figures in Spec are GB/s using this
// unit, matching the paper's Table 1.
const GB = 1 << 30

// Spec describes a cache-coherent NUMA machine.
//
// The bandwidth and latency fields correspond one-to-one to Table 1 of the
// paper. RemoteBWGBs is the bandwidth of one interconnect direction between
// a pair of sockets (the paper's "Remote B/W"); modern links are full
// duplex, so the two directions are modeled as independent resources.
type Spec struct {
	// Name identifies the machine in reports, e.g. "2x8-core Xeon".
	Name string
	// CPU is the marketing name of the processor, e.g. "E5-2630v3".
	CPU string
	// Sockets is the number of NUMA nodes. Each socket has its own memory
	// controller and DIMMs.
	Sockets int
	// CoresPerSocket is the number of physical cores per socket.
	CoresPerSocket int
	// ThreadsPerCore is the SMT width (2 for the paper's Haswells).
	ThreadsPerCore int
	// ClockGHz is the nominal clock rate in GHz.
	ClockGHz float64
	// MemPerSocketGB is the DRAM attached to each socket, in GiB.
	MemPerSocketGB int
	// LocalLatencyNs is the idle load-to-use latency to local DRAM.
	LocalLatencyNs float64
	// RemoteLatencyNs is the idle load-to-use latency to a remote socket's
	// DRAM across the interconnect.
	RemoteLatencyNs float64
	// LocalBWGBs is the peak read bandwidth of one socket's memory
	// controller, GB/s.
	LocalBWGBs float64
	// RemoteBWGBs is the peak bandwidth of the interconnect between two
	// sockets, per direction, GB/s.
	RemoteBWGBs float64
	// LLCMB is the size of one socket's shared last-level cache in MiB.
	LLCMB float64

	// IPCEff is the effective (sustained) instructions-per-cycle per core
	// for the scan-style kernels modeled here. Calibrated once against the
	// paper's Figure 2 and then reused for all experiments.
	IPCEff float64
	// RemoteStallFactor is the issue-side penalty of a remote byte relative
	// to a local byte: threads stall longer on interconnect transfers
	// (Table 2: "may leave memory bandwidth unused as threads stall").
	// Calibrated once against Figure 2.
	RemoteStallFactor float64
}

// Validate checks that the spec is internally consistent.
func (s *Spec) Validate() error {
	switch {
	case s.Sockets <= 0:
		return errors.New("machine: Sockets must be positive")
	case s.CoresPerSocket <= 0:
		return errors.New("machine: CoresPerSocket must be positive")
	case s.ThreadsPerCore <= 0:
		return errors.New("machine: ThreadsPerCore must be positive")
	case s.ClockGHz <= 0:
		return errors.New("machine: ClockGHz must be positive")
	case s.LocalBWGBs <= 0:
		return errors.New("machine: LocalBWGBs must be positive")
	case s.Sockets > 1 && s.RemoteBWGBs <= 0:
		return errors.New("machine: RemoteBWGBs must be positive on multi-socket machines")
	case s.LocalLatencyNs <= 0:
		return errors.New("machine: LocalLatencyNs must be positive")
	case s.Sockets > 1 && s.RemoteLatencyNs < s.LocalLatencyNs:
		return errors.New("machine: RemoteLatencyNs must be >= LocalLatencyNs")
	case s.IPCEff <= 0:
		return errors.New("machine: IPCEff must be positive")
	case s.RemoteStallFactor < 1:
		return errors.New("machine: RemoteStallFactor must be >= 1")
	case s.MemPerSocketGB <= 0:
		return errors.New("machine: MemPerSocketGB must be positive")
	}
	return nil
}

// HWThreads is the total number of hardware thread contexts on the machine.
// The paper's evaluation always uses all of them.
func (s *Spec) HWThreads() int {
	return s.Sockets * s.CoresPerSocket * s.ThreadsPerCore
}

// ThreadsPerSocket is the number of hardware thread contexts per socket.
func (s *Spec) ThreadsPerSocket() int {
	return s.CoresPerSocket * s.ThreadsPerCore
}

// SocketOf maps a hardware thread ID in [0, HWThreads) to its socket. Thread
// IDs are laid out socket-major, mirroring pinned Callisto-RTS workers.
func (s *Spec) SocketOf(thread int) int {
	if thread < 0 || thread >= s.HWThreads() {
		panic(fmt.Sprintf("machine: thread %d out of range [0,%d)", thread, s.HWThreads()))
	}
	return thread / s.ThreadsPerSocket()
}

// ExecRate is the modeled peak execution rate of one socket in
// instructions/second: cores x clock x effective IPC. SMT threads share the
// core's issue width, so ThreadsPerCore does not multiply the rate.
func (s *Spec) ExecRate() float64 {
	return float64(s.CoresPerSocket) * s.ClockGHz * 1e9 * s.IPCEff
}

// TotalLocalBWGBs is the machine-wide peak memory bandwidth if every socket
// streams from its own memory (the paper's "Total local B/W").
func (s *Spec) TotalLocalBWGBs() float64 {
	return float64(s.Sockets) * s.LocalBWGBs
}

// MemPerSocketBytes is the DRAM per socket in bytes.
func (s *Spec) MemPerSocketBytes() uint64 {
	return uint64(s.MemPerSocketGB) * GB
}

// String summarises the topology in one line.
func (s *Spec) String() string {
	return fmt.Sprintf("%s (%d x %d-core %s @ %.1f GHz, %d GB/socket, local %.1f GB/s, remote %.1f GB/s)",
		s.Name, s.Sockets, s.CoresPerSocket, s.CPU, s.ClockGHz, s.MemPerSocketGB, s.LocalBWGBs, s.RemoteBWGBs)
}

// X52Small is the paper's 2-socket, 8-core-per-socket Oracle X5-2 machine
// (Table 1, left column). Its defining trait is a very low interconnect
// bandwidth (a single QPI link, 8 GB/s) relative to local memory bandwidth.
func X52Small() *Spec {
	return &Spec{
		Name:              "2x8-core Xeon",
		CPU:               "E5-2630v3 (Haswell)",
		Sockets:           2,
		CoresPerSocket:    8,
		ThreadsPerCore:    2,
		ClockGHz:          2.4,
		MemPerSocketGB:    128,
		LocalLatencyNs:    77,
		RemoteLatencyNs:   130,
		LocalBWGBs:        49.3,
		RemoteBWGBs:       8.0,
		LLCMB:             20,
		IPCEff:            3.0,
		RemoteStallFactor: 1.25,
	}
}

// X52Large is the paper's 2-socket, 18-core-per-socket Oracle X5-2 machine
// (Table 1, right column). Its 3 QPI links give it much higher interconnect
// bandwidth, which is why interleaving beats single-socket placement there.
func X52Large() *Spec {
	return &Spec{
		Name:              "2x18-core Xeon",
		CPU:               "E5-2699v3 (Haswell)",
		Sockets:           2,
		CoresPerSocket:    18,
		ThreadsPerCore:    2,
		ClockGHz:          2.3,
		MemPerSocketGB:    192,
		LocalLatencyNs:    85,
		RemoteLatencyNs:   132,
		LocalBWGBs:        43.8,
		RemoteBWGBs:       26.8,
		LLCMB:             45,
		IPCEff:            3.0,
		RemoteStallFactor: 1.25,
	}
}

// X58Callisto is an 8-socket machine in the class Callisto-RTS targets
// ("even on an 8-socket machine with 1024 hardware threads", §2.2):
// 8 x 64-core processors with SMT-2. Per-link interconnect bandwidth is
// low relative to aggregate memory bandwidth, making placement decisions
// even more consequential than on the 2-socket machines.
func X58Callisto() *Spec {
	return &Spec{
		Name:              "8x64-core",
		CPU:               "SPARC M7-class",
		Sockets:           8,
		CoresPerSocket:    64,
		ThreadsPerCore:    2,
		ClockGHz:          2.0,
		MemPerSocketGB:    256,
		LocalLatencyNs:    90,
		RemoteLatencyNs:   160,
		LocalBWGBs:        60,
		RemoteBWGBs:       12,
		LLCMB:             64,
		IPCEff:            3.0,
		RemoteStallFactor: 1.25,
	}
}

// UMA returns a single-socket spec, useful in tests and as the degenerate
// case for placement logic (every placement collapses to local).
func UMA(cores int) *Spec {
	return &Spec{
		Name:              fmt.Sprintf("1x%d-core UMA", cores),
		CPU:               "generic",
		Sockets:           1,
		CoresPerSocket:    cores,
		ThreadsPerCore:    1,
		ClockGHz:          2.5,
		MemPerSocketGB:    64,
		LocalLatencyNs:    80,
		RemoteLatencyNs:   80,
		LocalBWGBs:        40,
		RemoteBWGBs:       0,
		LLCMB:             30,
		IPCEff:            3.0,
		RemoteStallFactor: 1,
	}
}

// Presets returns the named machine specs used across the benchmark
// harness. The two X5-2 machines come from Table 1 of the paper.
func Presets() map[string]*Spec {
	return map[string]*Spec{
		"small":    X52Small(),
		"large":    X52Large(),
		"uma":      UMA(8),
		"callisto": X58Callisto(),
	}
}

// ByName resolves a preset name ("small", "large", "uma", "callisto"); it
// returns an error listing the valid names otherwise.
func ByName(name string) (*Spec, error) {
	p := Presets()
	if s, ok := p[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("machine: unknown preset %q (want one of small, large, uma, callisto)", name)
}
