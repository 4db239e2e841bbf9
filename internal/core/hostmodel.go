package core

// modeledGraphDegree is the directed overlap edges per vertex the host
// admission model assumes. Shotgun data at assembly-grade coverage keeps
// a handful of true overlaps per read end; 8 directed edges per vertex
// upper-bounds the post-reduction graphs the test profiles produce while
// staying a pure function of the job size.
const modeledGraphDegree = 8

// GraphHostModel returns the modeled peak host bytes a job of numReads
// reads (of at most maxReadLen bases) needs under the given graph
// backend: the bulk read set plus the engine's graph-representation
// peak for n = 2*numReads vertices (each engine's graphHostBytes, with
// modeledGraphDegree*n modeled entries where it stores edges). It is the
// serving layer's host-side analogue of DeviceDemandBytes — a
// deterministic upper bound the admission math can invert — not a
// measurement.
func GraphHostModel(backend string, numReads, maxReadLen int) int64 {
	reads := int64(numReads)*int64(maxReadLen) + 4*int64(numReads)
	return reads + EngineFor(backend).graphHostBytes(int64(2*numReads))
}

// MaxReadsForHostBudget inverts GraphHostModel: the largest numReads
// whose modeled host footprint fits in budget bytes. Zero when even one
// read does not fit.
func MaxReadsForHostBudget(backend string, budget int64, maxReadLen int) int {
	if budget <= 0 || GraphHostModel(backend, 1, maxReadLen) > budget {
		return 0
	}
	lo, hi := 1, 2
	for GraphHostModel(backend, hi, maxReadLen) <= budget {
		lo = hi
		if hi > 1<<40 { // model is linear: budget this large means "unbounded"
			return hi
		}
		hi *= 2
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if GraphHostModel(backend, mid, maxReadLen) <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
