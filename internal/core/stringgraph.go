package core

import (
	"context"
	"os"
	"path/filepath"

	"repro/internal/dna"
	"repro/internal/extsort"
	"repro/internal/kv"
	"repro/internal/kvio"
	"repro/internal/succinct"
)

// ReduceSuccinct is the string-graph engine's reduce, shared by the
// single-node pipeline and the cluster master: it builds the succinct
// store from the candidate overlaps feed emits and removes transitive
// edges from it.
//
// feed calls add once per verified candidate u->v with overlap l. Like
// sgraph.Graph.AddOverlap, add drops self-loops and hairpins and stores
// every other candidate together with its complement edge. The edges
// spill to a kv file under sortCfg.TempDir as they arrive, the external
// sorter orders them by (U, V), and the final merge streams straight
// into the succinct builder — the full edge list never materializes in
// host memory. A masked two-hop pass over the compressed store then
// marks the transitive edges.
//
// sortCfg supplies the device, meter, host tracker, block sizes, trace
// sink, and overlap ledger every step charges; its TempDir is created
// and removed here. graphMem (required) is charged with the store's host
// bytes. On success the caller owns that charge and releases
// red.Graph().HostBytes() when it drops the store.
func ReduceSuccinct(ctx context.Context, sortCfg extsort.Config, graphMem succinct.MemSink,
	rs dna.ReadSource, feed func(add func(u, v uint32, l uint16)) error) (*succinct.Reduction, error) {
	if err := os.MkdirAll(sortCfg.TempDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(sortCfg.TempDir)
	spillPath := filepath.Join(sortCfg.TempDir, "cand.kv")
	w, err := kvio.NewWriter(spillPath, sortCfg.Meter)
	if err != nil {
		return nil, err
	}
	var wErr error
	err = feed(func(u, v uint32, l uint16) {
		if wErr != nil || u == v || u == dna.ComplementVertex(v) {
			return
		}
		if wErr = w.Write(persistedEdge{U: u, V: v, Len: l}.pair()); wErr != nil {
			return
		}
		wErr = w.Write(persistedEdge{
			U: dna.ComplementVertex(v), V: dna.ComplementVertex(u), Len: l}.pair())
	})
	if cerr := w.Close(); wErr == nil {
		wErr = cerr
	}
	if err != nil {
		return nil, err
	}
	if wErr != nil {
		return nil, wErr
	}

	b, err := succinct.NewBuilder(2*rs.NumReads(), graphMem)
	if err != nil {
		return nil, err
	}
	// Sorted pairs order by (Key.Hi, Key.Lo) = (U<<32|V, Len): exactly
	// the non-decreasing (U, V) runs the builder requires, duplicates
	// adjacent for its keep-the-longest dedupe.
	_, err = extsort.SortStream(ctx, sortCfg, spillPath, func(batch []kv.Pair) error {
		for _, pr := range batch {
			e := edgeFromPair(pr)
			if err := b.Push(succinct.Edge{U: e.U, V: e.V, Len: e.Len}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Abandon()
		return nil, err
	}
	g, err := b.Finish()
	if err != nil {
		b.Abandon()
		return nil, err
	}

	red, err := g.TransitiveReduce(ctx, succinct.ReduceConfig{
		Device:    sortCfg.Device,
		VertexLen: rs.VertexLen,
		// The same device budget the sort phase works within, so the pass
		// honors the DeviceDemandBytes lease multi-tenant admission uses.
		MaxResidentBytes: 4 * int64(sortCfg.DeviceBlockPairs) * kv.PairBytes,
		Overlap:          sortCfg.Overlap,
	})
	if err != nil {
		graphMem.Release(g.HostBytes())
		return nil, err
	}
	mtr := sortCfg.Obs.Metrics()
	mtr.Counter(`graph.nnz{backend="succinct"}`).Add(g.NNZ())
	mtr.Counter(`graph.removed_edges{backend="succinct"}`).Add(red.Removed)
	mtr.Counter(`graph.spgemm_flops{backend="succinct"}`).Add(red.Flops)
	return red, nil
}
