package core

import (
	"context"

	"repro/internal/dna"
	"repro/internal/extsort"
	"repro/internal/graph"
	"repro/internal/succinct"
)

// Engine is the Reduce/Compress half of an assembly: verified candidate
// overlaps arrive in descending length (Section III-C), the engine builds
// and reduces its graph, the surviving edges are persisted and reloaded,
// and contig paths come out. Config.GraphBackend selects one through
// EngineFor; the single-node pipeline and the cluster drive either engine
// through this interface alone.
type Engine interface {
	// Name is the engine's GraphBackend value, the label of its metrics
	// and stage spans.
	Name() string
	// Reduce builds the reduced graph from the candidates feed offers
	// (feed calls add once per candidate, in descending overlap length).
	// The graph stays charged to env.GraphMem until Release; on error the
	// engine releases it itself.
	Reduce(ctx context.Context, env EngineEnv, feed func(add AddFunc) error) (ReducedGraph, error)
	// Load rebuilds a reduced graph from its persisted live edges, in the
	// order ReducedGraph.LiveEdges produced them.
	Load(env EngineEnv, next func() (graph.Edge, bool, error)) (ReducedGraph, error)
	// ClusterCharges declares the engine's modeled costs in the
	// distributed reduce for a run over numReads reads.
	ClusterCharges(numReads int) ClusterCharges
	// graphHostBytes is the engine's term of GraphHostModel for
	// numVertices vertices.
	graphHostBytes(numVertices int64) int64
}

// AddFunc offers one verified candidate overlap u->v of length l to an
// engine and reports whether the engine kept it: the greedy graph keeps
// the candidates it accepts, the string graph every candidate except
// self-loops and hairpins.
type AddFunc func(u, v uint32, l uint16) bool

// EngineEnv is what an engine runs against.
type EngineEnv struct {
	// Sort supplies the device, meter, host tracker, block sizes, trace
	// sink and overlap ledger the engine charges. Its TempDir is the
	// string graph's candidate spill directory, which Reduce creates and
	// removes.
	Sort extsort.Config
	// GraphMem is charged with the graph's host bytes.
	GraphMem succinct.MemSink
	// Reads is the read set whose strands are the graph's vertices.
	Reads dna.ReadSource
	// Traverse holds the path-extraction options. The string graph reads
	// only IncludeSingletons: unitig chains leave no cycles to break.
	Traverse graph.TraverseOptions
	// ParallelTraversal walks the greedy graph with the BSP traversal on
	// Sort.Device (Config.ParallelTraversal); the string graph ignores it.
	ParallelTraversal bool
}

// ReducedGraph is an engine's graph after Reduce or Load.
type ReducedGraph interface {
	// Accepted is the number of directed edges that survive.
	Accepted() int64
	// Removed is the number of transitive edges the reduction masked;
	// zero for the greedy graph, which never stores one.
	Removed() int64
	// LiveEdges streams the surviving edges in the engine's edges.kv
	// order. A decode error ends the stream and is returned by that call
	// and every later one.
	LiveEdges() func() (graph.Edge, bool, error)
	// Paths extracts the contig paths.
	Paths() []graph.Path
	// Release drops the graph's GraphMem charge.
	Release()
}

// ClusterCharges are an engine's modeled costs in the distributed reduce
// (Section III-E.3). Every node's candidates feed one engine on the
// master in descending length and node order; the cluster charges these
// amounts as it does, whichever engine runs.
type ClusterCharges struct {
	// TokenBytes of network traffic each time the candidate stream moves
	// from one node's list to another's: the greedy graph's out-degree
	// bit-vector token changing owner.
	TokenBytes int64
	// CandidateHostBytes of serialized host-memory traffic per candidate
	// offered.
	CandidateHostBytes int64
	// CandidateShipBytes of network traffic per candidate a non-master
	// node ships to the master during Reduce.
	CandidateShipBytes int64
	// KeptShipBytes of master network traffic during Compress per
	// candidate a non-master node kept: that node holds the kept edges
	// and ships them to the master.
	KeptShipBytes int64
}

// engines maps each Backends value to its engine.
var engines = map[string]Engine{BackendGreedy: greedyEngine{}, BackendSuccinct: succinctEngine{}}

// EngineFor returns the engine a GraphBackend value selects. The empty
// string, and any value ResolveBackend rejects, select greedy, so callers
// validate the value first (Config.Validate does).
func EngineFor(backend string) Engine {
	if e, ok := engines[backend]; ok {
		return e
	}
	return engines[BackendGreedy]
}

// greedyEngine is the paper's engine: the bit-vector greedy graph keeps
// the longest overlap per read end, and paths are its maximal walks.
type greedyEngine struct{}

func (greedyEngine) Name() string { return BackendGreedy }

func (greedyEngine) Reduce(_ context.Context, env EngineEnv, feed func(add AddFunc) error) (ReducedGraph, error) {
	g := newGreedyGraph(env)
	if err := feed(g.g.AddCandidate); err != nil {
		g.Release()
		return nil, err
	}
	env.Sort.Obs.Metrics().Counter(`graph.nnz{backend="greedy"}`).Add(g.Accepted())
	return g, nil
}

func (greedyEngine) Load(env EngineEnv, next func() (graph.Edge, bool, error)) (ReducedGraph, error) {
	g := newGreedyGraph(env)
	for {
		e, ok, err := next()
		if err != nil {
			g.Release()
			return nil, err
		}
		if !ok {
			return g, nil
		}
		g.g.InstallEdge(e)
	}
}

// ClusterCharges: each candidate touches about four cache lines of
// randomly addressed host memory (two bit-vector probes, two edge-slot
// writes), which makes graph building the serialized t_g cost; the token
// is the 2*numReads-bit out-degree vector; and each kept candidate is two
// 6-byte edges (itself and its complement, Section III-C's sizing) on the
// node that accepted it.
func (greedyEngine) ClusterCharges(numReads int) ClusterCharges {
	return ClusterCharges{
		TokenBytes:         8 * int64((2*numReads+63)/64),
		CandidateHostBytes: 4 * 64,
		KeptShipBytes:      2 * 6,
	}
}

// graphHostBytes: per-vertex arrays only (successor, overlap length, one
// bit of out-mask), no per-edge term — the paper's O(reads) design.
func (greedyEngine) graphHostBytes(n int64) int64 { return 6*n + (n+7)/8 }

// greedyGraph is the greedy engine's ReducedGraph.
type greedyGraph struct {
	g   *graph.Graph
	env EngineEnv
}

func newGreedyGraph(env EngineEnv) greedyGraph {
	g := greedyGraph{g: graph.New(env.Reads.NumReads()), env: env}
	env.GraphMem.Add(g.g.ApproxBytes())
	return g
}

func (g greedyGraph) Accepted() int64 { return g.g.NumEdges() }
func (g greedyGraph) Removed() int64  { return 0 }
func (g greedyGraph) Release()        { g.env.GraphMem.Release(g.g.ApproxBytes()) }

// LiveEdges streams the out-edges in vertex order.
func (g greedyGraph) LiveEdges() func() (graph.Edge, bool, error) {
	u, n := uint32(0), uint32(g.g.NumVertices())
	return func() (graph.Edge, bool, error) {
		for ; u < n; u++ {
			if v, l, ok := g.g.OutEdge(u); ok {
				u++
				return graph.Edge{U: u - 1, V: v, Len: l}, true, nil
			}
		}
		return graph.Edge{}, false, nil
	}
}

func (g greedyGraph) Paths() []graph.Path {
	if g.env.ParallelTraversal {
		return g.g.TraverseParallel(g.env.Sort.Device, g.env.Reads.VertexLen, g.env.Traverse)
	}
	return g.g.Traverse(g.env.Reads.VertexLen, g.env.Traverse)
}
