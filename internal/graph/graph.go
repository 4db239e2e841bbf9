// Package graph implements LaSAGNA's greedy string graph (Sections II-A.2
// and III-C) and its path traversal (Section III-D, first stage).
//
// Vertices are read strands: read i contributes forward vertex 2i and
// reverse-complement vertex 2i+1. The graph is greedy — each vertex keeps
// at most one outgoing and one incoming edge. A candidate edge (u, v, l),
// meaning the l-suffix of u matches the l-prefix of v, is accepted iff
// neither u nor v' (the complement of v) already has an outgoing edge;
// acceptance records both (u, v, l) and the implied complementary edge
// (v', u', l) and sets both out-degree bits. Because in-degree(v) equals
// out-degree(v'), one bit-vector suffices — the bit-vector the paper's
// distributed reduce phase forwards between nodes as a token.
//
// Candidates must be offered in descending overlap length (the pipeline
// processes partitions from l_max-1 down to l_min), which is what makes
// the greedy choice "keep the longest overlap per read".
package graph

import (
	"repro/internal/bitvec"
	"repro/internal/dna"
)

// NoVertex marks the absence of an out-edge.
const NoVertex = ^uint32(0)

// bget and bset wrap the error-returning bitvec accessors for the
// vectors this package sizes itself (2*numReads bits at construction,
// indexed by vertex id < 2*numReads), where out-of-range is impossible.
func bget(v *bitvec.Vector, i uint32) bool {
	set, _ := v.Get(i)
	return set
}

func bset(v *bitvec.Vector, i uint32) {
	_ = v.Set(i)
}

// Edge is one directed overlap edge: the Len-suffix of U matches the
// Len-prefix of V.
type Edge struct {
	U, V uint32
	Len  uint16
}

// Graph is the greedy string graph.
type Graph struct {
	numReads int
	out      *bitvec.Vector // out-degree bits, indexed by vertex
	next     []uint32       // out-edge target per vertex
	olen     []uint16       // out-edge overlap length per vertex
	numEdges int64
}

// New creates a graph over numReads reads (2*numReads vertices).
func New(numReads int) *Graph {
	next := make([]uint32, 2*numReads)
	for i := range next {
		next[i] = NoVertex
	}
	return &Graph{
		numReads: numReads,
		out:      bitvec.New(2 * numReads),
		next:     next,
		olen:     make([]uint16, 2*numReads),
	}
}

// NumReads returns the number of reads.
func (g *Graph) NumReads() int { return g.numReads }

// NumVertices returns the number of vertices (2 per read).
func (g *Graph) NumVertices() int { return 2 * g.numReads }

// NumEdges returns the number of directed edges added (complementary
// edges counted).
func (g *Graph) NumEdges() int64 { return g.numEdges }

// AddCandidate offers the candidate edge (u, v, l) and reports whether it
// was accepted. Self-loops (u == v) and hairpins (u == v') are rejected,
// as is any candidate whose source u or complementary source v' already
// has an outgoing edge.
func (g *Graph) AddCandidate(u, v uint32, l uint16) bool {
	if u == v || u == dna.ComplementVertex(v) {
		return false
	}
	vc := dna.ComplementVertex(v)
	if bget(g.out, u) || bget(g.out, vc) {
		return false
	}
	uc := dna.ComplementVertex(u)
	bset(g.out, u)
	bset(g.out, vc)
	g.next[u] = v
	g.olen[u] = l
	g.next[vc] = uc
	g.olen[vc] = l
	g.numEdges += 2
	return true
}

// InstallEdge records a single directed edge without the greedy checks
// and without adding the complementary edge. It rebuilds a graph from
// edges a greedy graph already accepted — the persisted edges.kv list,
// which holds every complementary edge in its own right.
func (g *Graph) InstallEdge(e Edge) {
	bset(g.out, e.U)
	g.next[e.U] = e.V
	g.olen[e.U] = e.Len
	g.numEdges++
}

// OutEdge returns the out-edge of v, if any.
func (g *Graph) OutEdge(v uint32) (target uint32, overlap uint16, ok bool) {
	t := g.next[v]
	if t == NoVertex {
		return 0, 0, false
	}
	return t, g.olen[v], true
}

// HasIncoming reports whether v has an incoming edge, which by complement
// symmetry is whether v' has an outgoing one.
func (g *Graph) HasIncoming(v uint32) bool {
	return bget(g.out, dna.ComplementVertex(v))
}

// Edges returns all directed edges in vertex order; intended for tests
// and diagnostics.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for v, t := range g.next {
		if t != NoVertex {
			out = append(out, Edge{U: uint32(v), V: t, Len: g.olen[v]})
		}
	}
	return out
}

// ApproxBytes estimates the host-memory footprint of the graph, which the
// paper sizes at ~5 bytes/edge plus the bit-vector (Section III-C).
func (g *Graph) ApproxBytes() int64 {
	return 4*int64(len(g.next)) + 2*int64(len(g.olen)) + g.out.Bytes()
}

// PathStep is one read strand within a path with its overhang length: the
// number of leading bases the strand contributes to the contig (its length
// minus its overlap with the next read; the last read contributes its full
// length).
type PathStep struct {
	V        uint32
	Overhang uint16
}

// Path is a maximal unambiguous walk through the graph.
type Path []PathStep

// TraverseOptions controls path extraction.
type TraverseOptions struct {
	// IncludeSingletons emits a one-step path for every read that ended up
	// in no path at all, so the contig set covers every input read (the
	// paper assigns isolated reads overhang equal to their length).
	IncludeSingletons bool
	// BreakCycles walks residual cycles (components where every vertex
	// has both in- and out-degree) starting from an arbitrary vertex.
	BreakCycles bool
}

// Traverse extracts paths. vertexLen must return the sequence length of a
// vertex. Seeds are vertices with out-degree 1 and in-degree 0; each read
// is used at most once across all paths (a read and its complement cannot
// both be emitted, which also deduplicates every path against its own
// reverse complement).
func (g *Graph) Traverse(vertexLen func(uint32) int, opt TraverseOptions) []Path {
	visited := bitvec.New(g.numReads)
	var paths []Path

	walk := func(seed uint32) Path {
		var p Path
		cur := seed
		for {
			bset(visited, dna.ReadOfVertex(cur))
			nxt, l, ok := g.OutEdge(cur)
			if !ok || bget(visited, dna.ReadOfVertex(nxt)) {
				p = append(p, PathStep{V: cur, Overhang: uint16(vertexLen(cur))})
				return p
			}
			p = append(p, PathStep{V: cur, Overhang: uint16(vertexLen(cur) - int(l))})
			cur = nxt
		}
	}

	// Stage 1: linear paths from in-degree-0, out-degree-1 seeds.
	for v := uint32(0); v < uint32(g.NumVertices()); v++ {
		if g.next[v] == NoVertex || g.HasIncoming(v) {
			continue
		}
		if bget(visited, dna.ReadOfVertex(v)) {
			continue
		}
		paths = append(paths, walk(v))
	}
	// Stage 2: residual cycles.
	if opt.BreakCycles {
		for v := uint32(0); v < uint32(g.NumVertices()); v++ {
			if g.next[v] == NoVertex || bget(visited, dna.ReadOfVertex(v)) {
				continue
			}
			paths = append(paths, walk(v))
		}
	}
	// Stage 3: singleton reads.
	if opt.IncludeSingletons {
		for r := uint32(0); r < uint32(g.numReads); r++ {
			if bget(visited, r) {
				continue
			}
			fwd := dna.ForwardVertex(r)
			paths = append(paths, Path{{V: fwd, Overhang: uint16(vertexLen(fwd))}})
			bset(visited, r)
		}
	}
	return paths
}
