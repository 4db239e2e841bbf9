package core

import (
	"context"
	"os"
	"path/filepath"

	"repro/internal/dna"
	"repro/internal/extsort"
	"repro/internal/graph"
	"repro/internal/kv"
	"repro/internal/kvio"
	"repro/internal/sgraph"
	"repro/internal/succinct"
)

// succinctEngine is the string-graph engine of Section II-A.2: every
// candidate becomes an edge of the compressed store, a masked two-hop
// pass removes the transitive ones, and contigs are spelled from unitig
// chains.
type succinctEngine struct{}

func (succinctEngine) Name() string { return BackendSuccinct }

func (succinctEngine) Reduce(ctx context.Context, env EngineEnv, feed func(add AddFunc) error) (ReducedGraph, error) {
	red, err := reduceSuccinct(ctx, env.Sort, env.GraphMem, env.Reads, feed)
	if err != nil {
		return nil, err
	}
	return succinctGraph{red: red, env: env}, nil
}

// Load rebuilds the store straight off the persisted sorted runs: the
// builder validates ordering and ranges as it streams, so a corrupted
// edge file fails here, and no CSR matrix or pointer-based graph is ever
// materialized.
func (succinctEngine) Load(env EngineEnv, next func() (graph.Edge, bool, error)) (ReducedGraph, error) {
	g, err := succinct.FromEdgeRunsMetered(2*env.Reads.NumReads(), env.GraphMem,
		func() (succinct.Edge, bool, error) {
			e, ok, err := next()
			return succinct.Edge(e), ok, err
		})
	if err != nil {
		return nil, err
	}
	return succinctGraph{red: g.Unreduced(), env: env}, nil
}

// ClusterCharges: the master reduces, so every non-master candidate
// travels to it at about 6 bytes (4-byte vertex plus overlap length,
// Section III-C's sizing), and the serialized host cost is the spill
// append — one sequential cache line per candidate. No token hops and
// no edges are left on the nodes.
func (succinctEngine) ClusterCharges(int) ClusterCharges {
	return ClusterCharges{CandidateHostBytes: 64, CandidateShipBytes: 6}
}

// graphHostBytes: the compressed adjacency stream (~3 B/entry) plus the
// two Elias–Fano offset sequences (~2 B/vertex). The builder's transient
// bookkeeping is smaller than the sealed structure, so the sealed size
// is the peak.
func (succinctEngine) graphHostBytes(n int64) int64 {
	return 3*modeledGraphDegree*n + 2*(n+1)
}

// succinctGraph is the string-graph engine's ReducedGraph.
type succinctGraph struct {
	red *succinct.Reduction
	env EngineEnv
}

func (g succinctGraph) Accepted() int64 { return g.red.Graph().NNZ() - g.red.Removed }
func (g succinctGraph) Removed() int64  { return g.red.Removed }
func (g succinctGraph) Release()        { g.env.GraphMem.Release(g.red.Graph().HostBytes()) }

// LiveEdges streams the surviving edges in CSR order, the sorted-run
// order Load validates.
func (g succinctGraph) LiveEdges() func() (graph.Edge, bool, error) {
	next := g.red.LiveEdges()
	return func() (graph.Edge, bool, error) {
		e, ok, err := next()
		return graph.Edge(e), ok, err
	}
}

// Paths spells unitig chains directly over the masked compressed store.
func (g succinctGraph) Paths() []graph.Path {
	return sgraph.UnitigsOf(g.red.LiveView(), g.env.Reads.VertexLen, g.env.Traverse.IncludeSingletons)
}

// reduceSuccinct builds the succinct store from the candidate overlaps
// feed emits and removes transitive edges from it.
//
// Like sgraph.Graph.AddOverlap, add drops self-loops and hairpins and
// stores every other candidate together with its complement edge. The
// edges spill to a kv file under sortCfg.TempDir as they arrive, the
// external sorter orders them by (U, V), and the final merge streams
// straight into the succinct builder — the full edge list never
// materializes in host memory. A masked two-hop pass over the compressed
// store then marks the transitive edges.
//
// sortCfg supplies the device, meter, host tracker, block sizes, trace
// sink, and overlap ledger every step charges; its TempDir is created
// and removed here. graphMem (required) is charged with the store's host
// bytes. On success the caller owns that charge and releases
// red.Graph().HostBytes() when it drops the store.
func reduceSuccinct(ctx context.Context, sortCfg extsort.Config, graphMem succinct.MemSink,
	rs dna.ReadSource, feed func(add AddFunc) error) (*succinct.Reduction, error) {
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
	err = feed(func(u, v uint32, l uint16) bool {
		if wErr != nil || u == v || u == dna.ComplementVertex(v) {
			return false
		}
		if wErr = w.Write(edgePair(graph.Edge{U: u, V: v, Len: l})); wErr != nil {
			return false
		}
		wErr = w.Write(edgePair(graph.Edge{
			U: dna.ComplementVertex(v), V: dna.ComplementVertex(u), Len: l}))
		return wErr == nil
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
			if err := b.Push(succinct.Edge(edgeFromPair(pr))); err != nil {
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
