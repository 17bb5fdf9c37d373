package bench

import (
	"errors"
	"fmt"
	"io"
	"text/tabwriter"

	"smartarrays/internal/core"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/perfmodel"
	"smartarrays/internal/rts"
)

// STREAM kernels over smart arrays. The paper motivates its aggregation
// workload with "the popular STREAM benchmark [McCalpin] that involves
// aggregating two arrays, to saturate memory bandwidth" (§5.1). This file
// implements the full STREAM quartet — Copy, Scale, Add, Triad — over
// smart arrays, reporting the modeled sustainable bandwidth per placement
// on each Table 1 machine, STREAM-style.

// StreamKernel identifies one of the four kernels.
type StreamKernel int

// The STREAM kernels.
const (
	StreamCopy  StreamKernel = iota // c[i] = a[i]
	StreamScale                     // b[i] = q*c[i]
	StreamAdd                       // c[i] = a[i] + b[i]
	StreamTriad                     // a[i] = b[i] + q*c[i]
)

// String names the kernel as STREAM does.
func (k StreamKernel) String() string {
	return [...]string{"Copy", "Scale", "Add", "Triad"}[k]
}

// arrays returns (reads, writes, instructions-per-element) per kernel.
func (k StreamKernel) shape() (reads, writes int, instr float64) {
	switch k {
	case StreamCopy:
		return 1, 1, 2
	case StreamScale:
		return 1, 1, 3
	case StreamAdd:
		return 2, 1, 4
	default: // Triad
		return 2, 1, 5
	}
}

// StreamResult is one row of the STREAM table.
type StreamResult struct {
	Machine   string
	Kernel    StreamKernel
	Placement memsim.Placement
	// BandwidthGBs is the modeled sustainable rate, counting bytes the
	// way STREAM does (reads + writes of the payload).
	BandwidthGBs float64
	TimeMs       float64
	// Verified reports that the real scaled run produced correct values.
	Verified bool
}

// streamScalar is STREAM's q.
const streamScalar = 3

// RunStream executes and models the four kernels across placements on
// both machines. The real run verifies kernel semantics at opts.Elements;
// the model evaluates the paper-scale arrays.
func RunStream(opts Options) ([]StreamResult, error) {
	var rows []StreamResult
	for _, spec := range Machines() {
		rt := rts.New(spec)
		opts.instrument(rt)
		for _, placement := range []memsim.Placement{memsim.SingleSocket, memsim.Interleaved, memsim.Replicated} {
			for k := StreamCopy; k <= StreamTriad; k++ {
				row, err := runStreamKernel(rt, spec, k, placement, opts)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// runStreamKernel really executes one kernel over smart arrays and models
// it at paper scale.
func runStreamKernel(rt *rts.Runtime, spec *machine.Spec, k StreamKernel, placement memsim.Placement, opts Options) (StreamResult, error) {
	n := opts.Elements
	alloc := func() (*core.SmartArray, error) {
		return core.Allocate(rt.Memory(), core.Config{Length: n, Bits: 64, Placement: placement})
	}
	a, err := alloc()
	if err != nil {
		return StreamResult{}, err
	}
	defer a.Free()
	b, err := alloc()
	if err != nil {
		return StreamResult{}, err
	}
	defer b.Free()
	c, err := alloc()
	if err != nil {
		return StreamResult{}, err
	}
	defer c.Free()

	// a[i] = i, b[i] = 2i, c[i] = 3i.
	for scale, arr := range []*core.SmartArray{a, b, c} {
		fillRange(arr, 0, 0, n, func(i uint64) uint64 { return uint64(scale+1) * i })
	}
	if _, ok := core.WriteAs[uint64](a, 0, 0, 0); !ok { // an empty range only asks the view rule
		return StreamResult{}, errors.New("bench: STREAM reads and writes its 64-bit arrays in place, which needs a little-endian host")
	}

	// Execute the kernel for real: each batch reads its sources in place
	// (core.WordsAs) and writes its destination through a write view
	// (core.WriteAs), whose Done updates every replica of a replicated
	// destination. The arrays are 64-bit, so batches never share words.
	dst := [...]*core.SmartArray{StreamCopy: c, StreamScale: b, StreamAdd: c, StreamTriad: a}[k]
	rt.ParallelFor(0, n, 0, func(w *rts.Worker, lo, hi uint64) {
		in := func(arr *core.SmartArray) []uint64 {
			v := arr.View(w.Socket)
			words, _ := core.WordsAs[uint64](&v)
			return words[lo:hi]
		}
		as, bs, cs := in(a), in(b), in(c)
		out, _ := core.WriteAs[uint64](dst, w.Socket, lo, hi)
		for i := range out.Words {
			switch k {
			case StreamCopy:
				out.Words[i] = as[i]
			case StreamScale:
				out.Words[i] = streamScalar * cs[i]
			case StreamAdd:
				out.Words[i] = as[i] + bs[i]
			default:
				out.Words[i] = bs[i] + streamScalar*cs[i]
			}
		}
		out.Done()
	})

	verified := true
	if opts.Verify {
		rep0 := a.GetReplica(0)
		repB := b.GetReplica(0)
		repC := c.GetReplica(0)
		for _, i := range []uint64{0, 1, n / 2, n - 1} {
			var ok bool
			switch k {
			case StreamCopy:
				ok = c.Get(repC, i) == i
			case StreamScale:
				// Scale ran after Copy state? No — fresh arrays per call:
				// c[i] = 3i at init, so b[i] = 3*3i.
				ok = b.Get(repB, i) == streamScalar*3*i
			case StreamAdd:
				ok = c.Get(repC, i) == i+2*i
			default:
				ok = a.Get(rep0, i) == 2*i+streamScalar*3*i
			}
			if !ok {
				return StreamResult{}, fmt.Errorf("bench: STREAM %v verification failed at %d", k, i)
			}
		}
	}

	// Model at paper scale (STREAM's convention: arrays of the
	// aggregation experiments' size).
	reads, writes, instr := k.shape()
	bytes := float64(PaperAggElements) * 8
	w := perfmodel.Workload{Instructions: float64(PaperAggElements) * instr}
	for i := 0; i < reads; i++ {
		w.Streams = append(w.Streams, perfmodel.Stream{
			Kind: perfmodel.Read, Bytes: bytes, Placement: placement,
		})
	}
	for i := 0; i < writes; i++ {
		w.Streams = append(w.Streams, perfmodel.Stream{
			Kind: perfmodel.Write, Bytes: bytes, Placement: placement,
		})
	}
	res := perfmodel.Solve(spec, w)
	return StreamResult{
		Machine:      spec.Name,
		Kernel:       k,
		Placement:    placement,
		BandwidthGBs: res.MemBandwidthGBs,
		TimeMs:       res.Seconds * 1e3,
		Verified:     verified,
	}, nil
}

// PrintStreamTable writes the STREAM results.
func PrintStreamTable(w io.Writer, rows []StreamResult) {
	fmt.Fprintln(w, "STREAM kernels over smart arrays (modeled sustainable bandwidth)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "machine\tplacement\tkernel\tGB/s\ttime(ms)\tverified")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.1f\t%.0f\t%v\n",
			r.Machine, r.Placement, r.Kernel, r.BandwidthGBs, r.TimeMs, r.Verified)
	}
	tw.Flush()
}
