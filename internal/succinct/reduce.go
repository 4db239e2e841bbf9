package succinct

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/costmodel"
	"repro/internal/gpu"
	"repro/internal/graph"
)

// ReduceConfig parameterizes the masked transitive-reduction pass over
// the compressed store: the two-hop predicate, the row tiling, and the
// device residency of the compressed structure.
type ReduceConfig struct {
	// Device is the simulated card the pass runs on (required).
	Device *gpu.Device
	// VertexLen supplies sequence lengths for overhang arithmetic
	// (required).
	VertexLen func(uint32) int
	// Fuzz is the overhang slack tolerated when matching a two-hop chain
	// against a direct edge.
	Fuzz int
	// RowBatch is the number of rows per kernel tile. Defaults to 4096.
	RowBatch int
	// MaxResidentBytes caps the device memory claimed for the compressed
	// structure and its removal mask; beyond it tiles re-stream their
	// rows over PCIe. 0 means fully resident.
	MaxResidentBytes int64
	// Overlap, when set, models the H2D prefetch against the compute on
	// an overlap-aware timeline.
	Overlap *costmodel.OverlapLedger
}

// Reduction is the outcome of a transitive-reduction pass: the mask
// over the store's entries plus the metered totals.
type Reduction struct {
	g       *Graph
	removed []bool
	// Removed counts the directed edges masked as transitive.
	Removed int64
	// Flops counts product terms examined: one per (u->w, w->x) pair.
	Flops int64
	// Tiles is the number of row tiles (kernel launches).
	Tiles int
}

// Graph returns the underlying compressed store.
func (r *Reduction) Graph() *Graph { return r.g }

// Live streams the surviving (non-masked) edges in CSR order.
func (r *Reduction) Live(fn func(Edge)) {
	i := int64(0)
	r.g.Edges(func(e Edge) {
		if !r.removed[i] {
			fn(e)
		}
		i++
	})
}

// LiveEdges returns a pull-style iterator over the surviving edges in
// CSR order, the shape writeEdgeFile consumes.
func (r *Reduction) LiveEdges() func() (Edge, bool) {
	var cols []uint32
	var vals []uint16
	u := uint32(0)
	base := int64(0)
	i := 0
	loaded := false
	return func() (Edge, bool) {
		for int(u) < r.g.n {
			if !loaded {
				cols, vals = cols[:0], vals[:0]
				var err error
				cols, vals, err = r.g.DecodeRow(u, cols, vals)
				if err != nil {
					return Edge{}, false
				}
				i = 0
				loaded = true
			}
			if i >= len(cols) {
				base += int64(len(cols))
				u++
				loaded = false
				continue
			}
			k := i
			i++
			if r.removed[base+int64(k)] {
				continue
			}
			return Edge{U: u, V: cols[k], Len: vals[k]}, true
		}
		return Edge{}, false
	}
}

// LiveView returns a traversal view over the surviving edges only,
// satisfying sgraph.Traversable so unitig extraction runs directly on
// the masked compressed store (the cluster path uses this; the
// single-node path round-trips through edges.kv instead).
func (r *Reduction) LiveView() *LiveView { return &LiveView{r: r} }

// LiveView adapts a Reduction to sgraph.Traversable.
type LiveView struct{ r *Reduction }

// NumReads implements sgraph.Traversable.
func (v *LiveView) NumReads() int { return v.r.g.NumReads() }

// NumVertices implements sgraph.Traversable.
func (v *LiveView) NumVertices() int { return v.r.g.NumVertices() }

// EachOut visits the live out-edges of u in ascending target order.
func (v *LiveView) EachOut(u uint32, fn func(to uint32, l uint16) bool) {
	base, err := v.r.g.EdgeBase(u)
	if err != nil {
		return
	}
	i := int64(0)
	v.r.g.EachOut(u, func(to uint32, l uint16) bool {
		k := base + i
		i++
		if v.r.removed[k] {
			return true
		}
		return fn(to, l)
	})
}

// TransitiveReduce runs the masked A·A pass over the compressed store:
// for every entry (u, x), if some two-hop chain u->w->x with strictly
// positive overhangs spells the same placement (overhang sum within
// Fuzz of the direct edge's), the entry is masked as transitive.
//
// This removes a superset of the edges Myers' sweep (sgraph) removes —
// the sweep skips witness chains whose first hop was itself eliminated,
// the masked pass considers every chain of the unreduced graph — while
// preserving reachability: a masked edge is always spelled by two
// surviving-or-masked edges with strictly smaller overhangs, so
// induction on overhang rebuilds every path. The strict-positivity guard
// is what makes that induction well-founded in the presence of
// full-length (zero overhang) overlaps between duplicate reads.
//
// Execution is tiled: RowBatch rows per superstep through
// graph.RunSupersteps, with each block decoding its row (and each
// product's neighbor row) from the compressed stream into registers.
// Charges are pure functions of the structure, so modeled cost is
// deterministic; the H2D traffic is the compressed bytes, which is
// where the representation's bandwidth win shows up.
func (g *Graph) TransitiveReduce(ctx context.Context, cfg ReduceConfig) (*Reduction, error) {
	if cfg.Device == nil {
		return nil, fmt.Errorf("succinct: ReduceConfig.Device is required")
	}
	if cfg.VertexLen == nil {
		return nil, fmt.Errorf("succinct: ReduceConfig.VertexLen is required")
	}
	rowBatch := cfg.RowBatch
	if rowBatch <= 0 {
		rowBatch = 4096
	}
	dev := cfg.Device
	red := &Reduction{g: g, removed: make([]bool, g.nnz)}
	if g.n == 0 {
		return red, nil
	}

	matBytes := g.Bytes()
	maskBytes := (g.nnz + 7) / 8
	claim := matBytes + maskBytes
	if cfg.MaxResidentBytes > 0 && claim > cfg.MaxResidentBytes {
		claim = cfg.MaxResidentBytes
	}
	residentMat := claim - maskBytes
	if residentMat < 0 {
		residentMat = 0
	}
	alloc, err := dev.AllocWait(ctx, claim)
	if err != nil {
		return nil, err
	}
	defer alloc.Free()

	tl := cfg.Overlap.NewTimeline()
	defer tl.Commit()
	streams := tl != nil
	ioS := dev.NewStream("succinct-io", tl.Line("prefetch"), streams)
	defer ioS.Close()
	cmp := dev.NewStream("succinct-compute", tl.Line("compute"), false)
	defer cmp.Close()

	// Upfront upload of the resident portion.
	ioS.CopyToDeviceAsync(residentMat)

	numTiles := (g.n + rowBatch - 1) / rowBatch
	red.Tiles = numTiles
	// bytesPerEdge is the amortized compressed cost of one entry, used
	// to price neighbor-row reads in the out-of-core transfer model.
	bytesPerEdge := int64(1)
	if g.nnz > 0 {
		if bpe := int64(len(g.adj)) / g.nnz; bpe > 1 {
			bytesPerEdge = bpe
		}
	}
	edgeBase := func(u int) int64 {
		v, err := g.EdgeBase(uint32(u))
		if err != nil {
			return 0
		}
		return v
	}
	// tileTraffic returns the tile's nz count and product-term count —
	// the structural quantities every charge derives from.
	var scratchCols []uint32
	var scratchVals []uint16
	tileTraffic := func(t int) (tileNnz, flops int64) {
		lo, hi := t*rowBatch, min((t+1)*rowBatch, g.n)
		tileNnz = edgeBase(hi) - edgeBase(lo)
		for u := lo; u < hi; u++ {
			scratchCols, scratchVals = scratchCols[:0], scratchVals[:0]
			var err error
			scratchCols, scratchVals, err = g.DecodeRow(uint32(u), scratchCols, scratchVals)
			if err != nil {
				return tileNnz, flops
			}
			for _, w := range scratchCols {
				d, err := g.Degree(w)
				if err != nil {
					return tileNnz, flops
				}
				flops += d
			}
		}
		return tileNnz, flops
	}
	// h2d is the out-of-core transfer a tile needs: its own compressed
	// rows plus every neighbor row its products decode, priced at the
	// amortized compressed bytes per entry. Zero when fully resident.
	h2d := func(t int) int64 {
		if residentMat >= matBytes {
			return 0
		}
		lo, hi := t*rowBatch, min((t+1)*rowBatch, g.n)
		rowBytes := int64(0)
		if bLo, err := g.byteOff.Get(lo); err == nil {
			if bHi, err := g.byteOff.Get(hi); err == nil {
				rowBytes = int64(bHi - bLo)
			}
		}
		_, flops := tileTraffic(t)
		return 2*int64(rowBatch+1) + rowBytes + bytesPerEdge*flops
	}
	if numTiles > 0 {
		ioS.CopyToDeviceAsync(h2d(0))
	}

	var stepErr error
	graph.RunSupersteps(dev, numTiles, func(t int) (int64, int64) {
		if stepErr != nil {
			return 0, 0
		}
		if err := ctx.Err(); err != nil {
			stepErr = err
			return 0, 0
		}
		// Barrier: this tile's data must be on-device before compute.
		if err := ioS.Sync(); err != nil {
			stepErr = err
			return 0, 0
		}
		cmp.WaitModeled(ioS.ModeledCursor())
		// Prefetch the next tile while this one computes.
		if t+1 < numTiles {
			ioS.CopyToDeviceAsync(h2d(t + 1))
		}

		lo, hi := t*rowBatch, min((t+1)*rowBatch, g.n)
		dev.LaunchBlocks(hi-lo, func(block int) {
			u := uint32(lo + block)
			// Per-block decode scratch: blocks run concurrently, so no
			// shared buffers.
			cols, vals, err := g.DecodeRow(u, nil, nil)
			if err != nil || len(cols) == 0 {
				return
			}
			base := edgeBase(int(u))
			lenU := cfg.VertexLen(u)
			var wCols []uint32
			var wVals []uint16
			for i := range cols {
				w := cols[i]
				o1 := lenU - int(vals[i])
				if o1 <= 0 {
					continue
				}
				lenW := cfg.VertexLen(w)
				wCols, wVals = wCols[:0], wVals[:0]
				wCols, wVals, err = g.DecodeRow(w, wCols, wVals)
				if err != nil {
					return
				}
				for j := range wCols {
					o2 := lenW - int(wVals[j])
					if o2 <= 0 {
						continue
					}
					x := wCols[j]
					k := sort.Search(len(cols), func(p int) bool { return cols[p] >= x })
					if k >= len(cols) || cols[k] != x {
						continue
					}
					total := o1 + o2
					if d := lenU - int(vals[k]); total >= d-cfg.Fuzz && total <= d+cfg.Fuzz {
						red.removed[base+int64(k)] = true // row-local: block owns row u
					}
				}
			}
		})

		tileNnz, flops := tileTraffic(t)
		red.Flops += flops
		// Each product term decodes its neighbor entry and probes the
		// direct row; each tile entry is read once and its mask bit
		// written once.
		memBytes := 6*(tileNnz+2*flops) + (tileNnz+7)/8
		ops := tileNnz + flops
		cmp.Charge(costmodel.TierDeviceMem, memBytes)
		cmp.Charge(costmodel.TierDeviceOps, ops)
		// Mask download rides the io stream, ordered after this tile's
		// compute by an enqueued modeled wait.
		ioS.WaitModeled(cmp.ModeledCursor())
		ioS.CopyFromDeviceAsync((tileNnz + 7) / 8)
		return memBytes, ops
	})
	if stepErr != nil {
		return nil, stepErr
	}
	if err := ioS.Sync(); err != nil {
		return nil, err
	}
	for _, r := range red.removed {
		if r {
			red.Removed++
		}
	}
	return red, nil
}
