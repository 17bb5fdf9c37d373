package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"runtime"
	"runtime/pprof"
)

// StartPprofServer serves net/http/pprof on addr (e.g. "localhost:6060")
// in a background goroutine. Serve errors after a successful listen are
// reported on stderr, not returned: the profiler is auxiliary and must
// never take the workload down.
func StartPprofServer(addr string) {
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "obs: pprof server on %s: %v\n", addr, err)
		}
	}()
}

// StartCPUProfile starts a CPU profile into path and returns a stop
// function that finishes and closes it.
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// WriteHeapProfile writes an up-to-date heap profile to path.
func WriteHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // fold in recently-freed allocations
	return pprof.WriteHeapProfile(f)
}

// Flags is the shared observability flag bundle the CLIs register:
//
//	-trace FILE        write the structured event trace as JSONL
//	-metrics-out FILE  write the run's aggregate Metrics as JSON at exit
//	-serve ADDR        serve live introspection endpoints while running
//	-pprof ADDR        serve net/http/pprof on ADDR while running
//	-cpuprofile FILE   write a CPU profile
//	-memprofile FILE   write a heap profile at exit
//
// The -serve flag only carries the address; the CLIs construct the
// obs/serve server themselves (obs cannot import its own sub-package) and
// enable per-array telemetry for it.
type Flags struct {
	Trace      string
	MetricsOut string
	Serve      string
	Pprof      string
	CPUProfile string
	MemProfile string

	stopCPU func() error
}

// Register installs the flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Trace, "trace", "", "write the structured event trace (JSONL) to this file")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write the run's aggregate metrics (JSON) to this file at exit")
	fs.StringVar(&f.Serve, "serve", "", "serve live introspection (/metrics /arrays /trace /decisions) on this address while running")
	fs.StringVar(&f.Pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
}

// Active reports whether any observability output was requested (i.e.
// whether the command should allocate a Recorder).
func (f *Flags) Active() bool {
	return f.Trace != "" || f.MetricsOut != "" || f.Serve != ""
}

// Start begins profiling as requested. Call after flag.Parse and before
// the workload; pair with Finish.
func (f *Flags) Start() error {
	if f.Pprof != "" {
		StartPprofServer(f.Pprof)
	}
	if f.CPUProfile != "" {
		stop, err := StartCPUProfile(f.CPUProfile)
		if err != nil {
			return err
		}
		f.stopCPU = stop
	}
	return nil
}

// Finish stops profiles, writes the heap profile, drains the recorder's
// trace to -trace and writes its Metrics to -metrics-out, each if
// requested. rec may be nil.
func (f *Flags) Finish(rec *Recorder) error {
	if f.stopCPU != nil {
		if err := f.stopCPU(); err != nil {
			return err
		}
		f.stopCPU = nil
	}
	if f.MemProfile != "" {
		if err := WriteHeapProfile(f.MemProfile); err != nil {
			return err
		}
	}
	if f.Trace != "" {
		if err := writeFile(f.Trace, rec.WriteTrace); err != nil {
			return err
		}
	}
	if f.MetricsOut != "" {
		return writeFile(f.MetricsOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rec.Metrics())
		})
	}
	return nil
}

// writeFile creates path, fills it with write and closes it, reporting the
// first error.
func writeFile(path string, write func(io.Writer) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
