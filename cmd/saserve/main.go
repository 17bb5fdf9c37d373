// Command saserve runs the query-service data plane: an HTTP+JSON front
// end serving colstore aggregations and graph kernels concurrently over
// one smart-array runtime (see internal/queryd).
//
//	saserve -addr 127.0.0.1:8080 -machine small -rows 1000000 -vertices 20000
//
// The server builds one deterministic synthetic dataset at startup
// (columns id/region/amount/flag plus a power-law graph); more can be
// added at runtime through POST /control/config. Admission knobs
// (-max-inflight, -max-queue, -queue-timeout-ms, -tenant-quota) set the
// initial config, also swappable at runtime. The obs introspection
// endpoints (/metrics /arrays /trace /decisions) are mounted on the same
// listener.
//
// -addr-file writes the bound address (useful with -addr :0 in scripts:
// the load harness polls the file instead of guessing the port).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"smartarrays/internal/machine"
	"smartarrays/internal/obs"
	"smartarrays/internal/queryd"
	"smartarrays/internal/rts"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	machineName := flag.String("machine", "small", "machine preset: small, large, uma, callisto")

	dataset := flag.String("dataset", "demo", "name of the startup dataset")
	rows := flag.Uint64("rows", 1<<20, "table rows in the startup dataset (0 = no table)")
	vertices := flag.Uint64("vertices", 20000, "graph vertices in the startup dataset (0 = no graph)")
	degree := flag.Int("degree", 8, "average out-degree of the startup graph")
	seed := flag.Uint64("seed", 1, "seed for the synthetic data generator")

	cfg := queryd.DefaultConfig()
	flag.IntVar(&cfg.MaxInFlight, "max-inflight", cfg.MaxInFlight, "concurrently executing queries")
	flag.IntVar(&cfg.MaxQueue, "max-queue", cfg.MaxQueue, "queued queries before shedding")
	flag.Int64Var(&cfg.QueueTimeoutMS, "queue-timeout-ms", cfg.QueueTimeoutMS, "default queue deadline")
	flag.IntVar(&cfg.TenantMaxInFlight, "tenant-quota", cfg.TenantMaxInFlight, "per-tenant in-flight cap (0 = unlimited)")
	// Serving defaults to a bounded result cache; the library default keeps
	// it off so embedded/test servers opt in explicitly.
	flag.IntVar(&cfg.CacheEntries, "cache", 1024, "result cache entries (0 = caching off)")
	flag.Int64Var(&cfg.SlowQueryMS, "slow-query-ms", 0, "slow-query-log threshold in ms (0 = default 250)")
	flag.Parse()

	spec, err := machine.ByName(*machineName)
	exitOn(err)

	rt := rts.New(spec)
	specs := []queryd.DatasetSpec{{
		Name: *dataset, Rows: *rows, Vertices: *vertices, Degree: *degree, Seed: *seed,
	}}
	srv, err := queryd.NewServer(rt, cfg, specs, obs.NewRecorder(0), obs.NewArrayRegistry())
	exitOn(err)

	bound, stop, err := srv.Start(*addr)
	exitOn(err)
	if *addrFile != "" {
		exitOn(os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644))
	}
	fmt.Fprintf(os.Stderr, "saserve: %s on http://%s (%s; %d rows, %d vertices)\n",
		*dataset, bound, spec.Name, *rows, *vertices)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "saserve: shutting down")
	_ = stop()
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "saserve:", err)
		os.Exit(1)
	}
}
