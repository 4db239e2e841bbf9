package graph

import (
	"sort"

	"repro/internal/dna"
	"repro/internal/gpu"
)

// RunSupersteps drives a bulk-synchronous computation on the device:
// step(s) runs once per superstep, strictly in order — the sequential
// execution is the barrier between supersteps — and returns the device
// traffic its grid generated (bytes moved through device memory, scalar
// operations). The device is charged once with the summed totals,
// matching how the modeled kernels batch their charges, and the totals
// are returned so streamed callers can also place them on a modeled
// timeline.
//
// Both BSP consumers route through here: the pointer-jumping traversal
// below (each doubling round is a superstep) and the succinct store's
// tiled transitive reduction (each row tile is a superstep). The contract — ordered supersteps, one
// aggregate kernel charge — is pinned by TestRunSuperstepsContract.
func RunSupersteps(dev *gpu.Device, supersteps int,
	step func(s int) (memBytes, ops int64)) (memBytes, ops int64) {
	for s := 0; s < supersteps; s++ {
		m, o := step(s)
		memBytes += m
		ops += o
	}
	dev.ChargeKernel(memBytes, ops)
	return memBytes, ops
}

// TraverseParallel extracts the same linear paths as Traverse but with a
// bulk-synchronous pointer-jumping computation — the paper's future-work
// item "processing the string graph in parallel using a bulk-synchronous
// processing model" (Section IV-D). Every vertex learns its chain's
// terminal vertex and its distance to it in O(log n) doubling rounds (a
// device-friendly list ranking); paths are then materialized by direct
// indexing instead of sequential walking.
//
// Residual cycles have no terminal and are skipped (the sequential
// Traverse with BreakCycles covers them); singleton emission matches
// TraverseOptions.IncludeSingletons. Paths are returned in seed-vertex
// order, which is the same order the sequential traversal discovers them
// in, so outputs are interchangeable. One pathological divergence: a
// chain that visits both strands of the same read is truncated at the
// revisit by the sequential walk but emitted whole here; such chains
// require palindromic overlap structures that shotgun data essentially
// never produces.
func (g *Graph) TraverseParallel(dev *gpu.Device, vertexLen func(uint32) int,
	opt TraverseOptions) []Path {
	n := g.NumVertices()
	jump := make([]uint32, n)
	dist := make([]uint32, n)
	for v := 0; v < n; v++ {
		if t := g.next[v]; t != NoVertex {
			jump[v] = t
			dist[v] = 1
		} else {
			jump[v] = uint32(v)
		}
	}
	// Pointer doubling: after k rounds, jump[v] is 2^k steps ahead (or
	// the terminal). Double buffering mirrors the barrier between BSP
	// supersteps. Cycles never converge to a fixed point; rounds are
	// bounded by log2(n)+1, after which any vertex still moving is on a
	// cycle.
	rounds := 1
	for size := 1; size < n; size *= 2 {
		rounds++
	}
	nextJump := make([]uint32, n)
	nextDist := make([]uint32, n)
	RunSupersteps(dev, rounds, func(int) (int64, int64) {
		for v := 0; v < n; v++ {
			j := jump[v]
			nextJump[v] = jump[j]
			nextDist[v] = dist[v] + dist[j]
		}
		jump, nextJump = nextJump, jump
		dist, nextDist = nextDist, dist
		return int64(n) * 16, int64(n)
	})

	// Seeds: out-degree 1, in-degree 0 (as in the sequential traversal).
	type chain struct {
		seed uint32
		len  int
	}
	var chains []chain
	for v := uint32(0); v < uint32(n); v++ {
		if g.next[v] == NoVertex || g.HasIncoming(v) {
			continue
		}
		term := jump[v]
		if g.next[term] != NoVertex {
			continue // still moving: v leads into a cycle (rho shape)
		}
		// Deduplicate against the reverse-complement mirror chain, whose
		// seed is the complement of this chain's terminal: keep the
		// orientation with the smaller seed, matching the order the
		// sequential traversal (ascending vertex scan) would emit.
		mirror := dna.ComplementVertex(term)
		if mirror < v {
			continue
		}
		chains = append(chains, chain{seed: v, len: int(dist[v]) + 1})
	}
	sort.Slice(chains, func(i, j int) bool { return chains[i].seed < chains[j].seed })

	// Materialize each path by direct placement: vertex v sits at offset
	// len-1-dist[v] of its chain (a device scatter in the BSP model).
	pathIndex := make(map[uint32]int, len(chains)) // terminal -> chain idx
	paths := make([]Path, len(chains))
	used := make([]bool, g.numReads)
	for i, c := range chains {
		paths[i] = make(Path, c.len)
		pathIndex[jump[c.seed]] = i
	}
	RunSupersteps(dev, 1, func(int) (int64, int64) {
		var placed int64
		for v := uint32(0); v < uint32(n); v++ {
			term := jump[v]
			if g.next[term] != NoVertex {
				continue
			}
			idx, ok := pathIndex[term]
			if !ok {
				continue
			}
			c := chains[idx]
			pos := c.len - 1 - int(dist[v])
			if pos < 0 {
				continue // off-chain vertex sharing the terminal (tree branch)
			}
			overhang := vertexLen(v)
			if t, l, hasOut := g.OutEdge(v); hasOut && pos < c.len-1 {
				_ = t
				overhang -= int(l)
			}
			paths[idx][pos] = PathStep{V: v, Overhang: uint16(overhang)}
			used[dna.ReadOfVertex(v)] = true
			placed++
		}
		return placed * 8, placed
	})

	// Tree branches: a vertex can share a terminal with the seed chain
	// without lying on it (it merged mid-way); the pos check above drops
	// it... but vertices *between* two merging branches would collide.
	// In a greedy graph in-degree <= 1 holds, so chains are disjoint and
	// no collisions occur; validate in tests.

	if opt.IncludeSingletons {
		for r := uint32(0); r < uint32(g.numReads); r++ {
			if used[r] {
				continue
			}
			fwd := dna.ForwardVertex(r)
			if g.next[fwd] != NoVertex || g.next[fwd|1] != NoVertex {
				continue // part of a cycle, not a singleton
			}
			paths = append(paths, Path{{V: fwd, Overhang: uint16(vertexLen(fwd))}})
		}
	}
	return paths
}
