package bench

import (
	"fmt"

	"smartarrays/internal/colstore"
	"smartarrays/internal/machine"
	"smartarrays/internal/perfmodel"
	"smartarrays/internal/rts"
)

// Shared-scan benchmark: one cooperative pass versus independent scans.
// Each cell really runs a MultiScan batch over a live column-store table
// on the simulated 18-core machine, verifies every query bit-identical
// against its independent Aggregate/GroupBy execution, and models the
// paper-scale per-query cost: the independent row pays a full mask walk
// plus masked fold per query; the batched row is the mean over the batch
// of perfmodel.CostSharedScan at each query's own same-signature mate
// count — a pass shares a mask build between equal signatures and nothing
// else, so a batch of mostly distinct predicates costs about as many
// scans as it has queries, plus the ride. Both rows gate.

// sharedScanQueries builds the benchmark batch: predicated aggregates and
// grouped queries over uniform (un-prunable) data, so every query walks
// every chunk. Queries 0 and 4 have the same signature — the batch's one
// shared mask build; the other six are alone with theirs.
func sharedScanQueries() []colstore.ScanQuery {
	return []colstore.ScanQuery{
		{Agg: colstore.Sum, Column: "val", Preds: []colstore.Pred{{Column: "val", Op: colstore.Le, Value: 1 << 14}}},
		{Agg: colstore.Count, Column: "val", Preds: []colstore.Pred{{Column: "val", Op: colstore.Ge, Value: 1 << 13}}},
		{Agg: colstore.Min, Column: "val", Preds: []colstore.Pred{{Column: "key", Op: colstore.Lt, Value: 6}}},
		{Agg: colstore.Max, Column: "val", Preds: []colstore.Pred{{Column: "key", Op: colstore.Ne, Value: 3}}},
		{Agg: colstore.Sum, Column: "val", Preds: []colstore.Pred{{Column: "val", Op: colstore.Le, Value: 1 << 14}}},
		{Agg: colstore.Sum, Column: "val", Key: "key", Preds: []colstore.Pred{{Column: "val", Op: colstore.Gt, Value: 1 << 12}}},
		{Agg: colstore.Count, Column: "val", Key: "key", Preds: []colstore.Pred{{Column: "key", Op: colstore.Ge, Value: 2}}},
		{Agg: colstore.Sum, Column: "val", Preds: []colstore.Pred{
			{Column: "val", Op: colstore.Ge, Value: 1 << 10}, {Column: "val", Op: colstore.Le, Value: 3 << 13}}},
	}
}

// RunSharedScanKernels executes and models the shared-scan cells.
func RunSharedScanKernels(opts Options) ([]KernelResult, error) {
	const bits = pruningBenchBits
	spec := machine.X52Large()
	rt := rts.New(spec)
	opts.instrument(rt)

	tbl, err := colstore.NewTable(rt, opts.Elements)
	if err != nil {
		return nil, err
	}
	defer tbl.Free()
	d := pruningDataset{name: "uniform"}
	vals := make([]uint64, opts.Elements)
	keys := make([]uint64, opts.Elements)
	mask := uint64(1)<<bits - 1
	for i := uint64(0); i < opts.Elements; i++ {
		vals[i] = d.value(i, opts.Elements, mask)
		keys[i] = vals[i] % 8
	}
	if _, err := tbl.AddColumn("val", vals, colstore.Options{}); err != nil {
		return nil, err
	}
	if _, err := tbl.AddColumn("key", keys, colstore.Options{}); err != nil {
		return nil, err
	}

	// The real cooperative batch, verified query by query against the
	// independent execution path.
	queries := sharedScanQueries()
	results, err := tbl.MultiScan(queries)
	if err != nil {
		return nil, err
	}
	verified := true
	for i, q := range queries {
		if q.Key == "" {
			want, err := tbl.Aggregate(q.Agg, q.Column, q.Preds...)
			if err != nil {
				return nil, err
			}
			if results[i].Value != want {
				verified = false
				if opts.Verify {
					return nil, fmt.Errorf("bench: shared scan query %d = %d, independent %d", i, results[i].Value, want)
				}
			}
			continue
		}
		want, err := tbl.GroupBy(q.Key, q.Agg, q.Column, q.Preds...)
		if err != nil {
			return nil, err
		}
		if len(results[i].Groups) != len(want) {
			verified = false
		} else {
			for g := range want {
				if results[i].Groups[g] != want[g] {
					verified = false
				}
			}
		}
		if opts.Verify && !verified {
			return nil, fmt.Errorf("bench: shared scan grouped query %d diverged from independent GroupBy", i)
		}
	}

	// Model the paper-scale per-query pair. Uniform data leaves the zone
	// index nothing to resolve (foldShare 1, resolvedShare 0), so the
	// independent query pays a full mask walk plus a full masked fold —
	// two payload passes. In the batch each signature is walked once and
	// every query folds once; a query splits its walk only with the
	// queries of its own signature.
	target, err := tbl.Column("val")
	if err != nil {
		return nil, err
	}
	cs := target.Array().EncodingStats()
	indepInstr := perfmodel.CostEncodedPrunedMask(cs, 0) + perfmodel.CostEncodedPrunedMaskedReduce(cs, 1)
	sigs := make([]string, len(queries))
	riders := map[string]int{}
	for i, q := range queries {
		sigs[i] = colstore.PredSignature(q.Preds)
		riders[sigs[i]]++
	}
	var sharedInstr float64
	for _, sig := range sigs {
		sharedInstr += perfmodel.CostSharedScan(cs, 1, 0, riders[sig]-1)
	}
	n := float64(len(queries))
	sharedInstr /= n
	sharedPasses := (float64(len(riders)) + n) / n

	return []KernelResult{
		modelKernel(spec, "shared-scan-indep/uniform", bits, indepInstr, 2, verified),
		modelKernel(spec, fmt.Sprintf("shared-scan-%dq/uniform", len(queries)), bits,
			sharedInstr, sharedPasses, verified),
	}, nil
}
