package succinct

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

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

// Live streams the surviving (non-masked) edges in CSR order, returning
// the first decode error after streaming the edges before it.
func (r *Reduction) Live(fn func(Edge)) error {
	next := r.LiveEdges()
	for {
		e, ok, err := next()
		if err != nil || !ok {
			return err
		}
		fn(e)
	}
}

// LiveEdges returns a pull-style iterator over the surviving edges in
// CSR order, the shape writeEdgeFile consumes. It walks the store front
// to back with one row cursor, so only the first row costs a select. A
// decode error ends the iteration and is returned by that call and
// every later one.
func (r *Reduction) LiveEdges() func() (Edge, bool, error) {
	g := r.g
	var rc rowCursor
	var err error
	if g.n > 0 {
		rc, err = g.rowsFrom(0)
	}
	var d rowDecoder
	var k int64 // store index of d's next entry
	return func() (Edge, bool, error) {
		for err == nil {
			if d.left > 0 {
				var v uint32
				var l uint16
				if v, l, err = d.next(); err != nil {
					break
				}
				k++
				if !r.removed[k-1] {
					return Edge{U: d.u, V: v, Len: l}, true, nil
				}
				continue
			}
			if err = d.done(); err != nil {
				break
			}
			if int(rc.u) == g.n {
				return Edge{}, false, nil
			}
			k, d, err = rc.next()
		}
		return Edge{}, false, err
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

// EachOut visits the live out-edges of u in ascending target order,
// decoding in place. Like Graph.EachOut, a decode error ends the visit.
func (v *LiveView) EachOut(u uint32, fn func(to uint32, l uint16) bool) {
	k, d, err := v.r.g.row(u)
	if err != nil {
		return
	}
	for ; d.left > 0; k++ {
		to, l, err := d.next()
		if err != nil {
			return
		}
		if !v.r.removed[k] && !fn(to, l) {
			return
		}
	}
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
// graph.RunSupersteps. Each tile's kernel launches one block per device
// worker; a block claims chunks of consecutive rows, walks them with one
// row cursor (a select per chunk, then forward scans), and for every
// product term u->w->x merge-probes w's row against u's (galloping
// forward through u's ascending columns) instead of searching u's row
// per term. Decode scratch is per block, so per worker, and sized by the
// largest degree. The structure every charge derives from — each tile's
// entry count, byte span and product-term count — is computed once, in
// parallel, before the first superstep. Charges are pure functions of
// that structure, so modeled cost is deterministic; the H2D traffic is
// the compressed bytes, which is where the representation's bandwidth
// win shows up. A decode error (a corrupt store) fails the pass.
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

	numTiles := (g.n + rowBatch - 1) / rowBatch
	red.Tiles = numTiles
	workers := max(dev.Workers(), 1)
	shapes, err := g.tileShapes(rowBatch, numTiles, workers)
	if err != nil {
		return nil, err
	}

	tl := cfg.Overlap.NewTimeline()
	defer tl.Commit()
	streams := tl != nil
	ioS := dev.NewStream("succinct-io", tl.Line("prefetch"), streams)
	defer ioS.Close()
	cmp := dev.NewStream("succinct-compute", tl.Line("compute"), false)
	defer cmp.Close()

	// Upfront upload of the resident portion.
	ioS.CopyToDeviceAsync(residentMat)

	// bytesPerEdge is the amortized compressed cost of one entry, used
	// to price neighbor-row reads in the out-of-core transfer model.
	bytesPerEdge := int64(1)
	if g.nnz > 0 {
		if bpe := int64(len(g.adj)) / g.nnz; bpe > 1 {
			bytesPerEdge = bpe
		}
	}
	// h2d is the out-of-core transfer a tile needs: its own compressed
	// rows plus every neighbor row its products decode, priced at the
	// amortized compressed bytes per entry. Zero when fully resident.
	h2d := func(t int) int64 {
		if residentMat >= matBytes {
			return 0
		}
		return 2*int64(rowBatch+1) + shapes[t].bytes + bytesPerEdge*shapes[t].flops
	}
	if numTiles > 0 {
		ioS.CopyToDeviceAsync(h2d(0))
	}

	probe := probeConfig{vertexLen: cfg.VertexLen, fuzz: cfg.Fuzz, removed: red.removed}
	// One decode buffer per worker, sized once for the longest row.
	var maxDeg int64
	for _, sh := range shapes {
		maxDeg = max(maxDeg, sh.maxDeg)
	}
	scratch := make([]reduceScratch, workers)
	for i := range scratch {
		scratch[i].cols = make([]uint32, 0, maxDeg)
		scratch[i].vals = make([]uint16, 0, maxDeg)
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
		var nextChunk atomic.Int64
		dev.LaunchBlocks(workers, func(block int) {
			sc := &scratch[block]
			for sc.err == nil {
				c := lo + int(nextChunk.Add(kernelChunkRows)) - kernelChunkRows
				if c >= hi {
					return
				}
				sc.err = g.reduceRows(c, min(c+kernelChunkRows, hi), probe, sc)
			}
		})
		for i := range scratch {
			if err := scratch[i].err; err != nil {
				stepErr = fmt.Errorf("succinct: transitive reduction: %w", err)
				return 0, 0
			}
		}

		sh := shapes[t]
		red.Flops += sh.flops
		// Each product term decodes its neighbor entry and probes the
		// direct row; each tile entry is read once and its mask bit
		// written once.
		memBytes := 6*(sh.nnz+2*sh.flops) + (sh.nnz+7)/8
		ops := sh.nnz + sh.flops
		cmp.Charge(costmodel.TierDeviceMem, memBytes)
		cmp.Charge(costmodel.TierDeviceOps, ops)
		// Mask download rides the io stream, ordered after this tile's
		// compute by an enqueued modeled wait.
		ioS.WaitModeled(cmp.ModeledCursor())
		ioS.CopyFromDeviceAsync((sh.nnz + 7) / 8)
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

// kernelChunkRows is the number of consecutive rows a kernel block
// claims at a time: small enough to balance a tile across workers, large
// enough that the chunk's opening selects amortize.
const kernelChunkRows = 64

// tileShape is the structure one row tile's charges derive from.
type tileShape struct {
	nnz    int64 // entries in the tile's rows
	bytes  int64 // compressed bytes of those rows
	flops  int64 // product terms: the sum of deg(w) over entries u->w
	maxDeg int64 // the longest row, which sizes the kernel's scratch
}

// tileShapes computes every tile's shape, with up to workers goroutines
// each claiming whole tiles. This pass decodes every row in full, so it
// is also where a corrupt adjacency stream is caught.
func (g *Graph) tileShapes(rowBatch, numTiles, workers int) ([]tileShape, error) {
	shapes := make([]tileShape, numTiles)
	errs := make([]error, numTiles)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, numTiles); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= numTiles {
					return
				}
				shapes[t], errs[t] = g.tileShape(t*rowBatch, min((t+1)*rowBatch, g.n))
			}
		}()
	}
	wg.Wait()
	for t, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("succinct: transitive reduction, tile %d: %w", t, err)
		}
	}
	return shapes, nil
}

// tileShape measures rows [lo, hi).
func (g *Graph) tileShape(lo, hi int) (tileShape, error) {
	rc, err := g.rowsFrom(uint32(lo))
	if err != nil {
		return tileShape{}, err
	}
	e0, b0 := rc.e, rc.b
	var flops, maxDeg int64
	for u := lo; u < hi; u++ {
		_, d, err := rc.next()
		if err != nil {
			return tileShape{}, err
		}
		maxDeg = max(maxDeg, d.left)
		for d.left > 0 {
			w, _, err := d.next()
			if err != nil {
				return tileShape{}, err
			}
			deg, err := g.Degree(w)
			if err != nil {
				return tileShape{}, err
			}
			flops += deg
		}
		if err := d.done(); err != nil {
			return tileShape{}, err
		}
	}
	return tileShape{nnz: int64(rc.e - e0), bytes: int64(rc.b - b0), flops: flops, maxDeg: maxDeg}, nil
}

// probeConfig is what the kernel needs besides the store: the two-hop
// predicate's inputs and the mask it writes.
type probeConfig struct {
	vertexLen func(uint32) int
	fuzz      int
	removed   []bool
}

// reduceScratch is one kernel block's reusable state.
type reduceScratch struct {
	cols []uint32
	vals []uint16
	err  error
}

// reduceRows masks the transitive entries of rows [lo, hi). Each row
// writes only its own mask entries, so blocks need no synchronization.
func (g *Graph) reduceRows(lo, hi int, p probeConfig, sc *reduceScratch) error {
	rc, err := g.rowsFrom(uint32(lo))
	if err != nil {
		return err
	}
	for u := lo; u < hi; u++ {
		base, d, err := rc.next()
		if err != nil {
			return err
		}
		if d.left == 0 {
			continue
		}
		if sc.cols, sc.vals, err = d.appendTo(sc.cols[:0], sc.vals[:0]); err != nil {
			return err
		}
		cols, vals := sc.cols, sc.vals
		lenU := p.vertexLen(uint32(u))
		for i, w := range cols {
			o1 := lenU - int(vals[i])
			if o1 <= 0 {
				continue
			}
			lenW := p.vertexLen(w)
			_, dw, err := g.row(w)
			if err != nil {
				return err
			}
			// w's columns ascend, so the probe position in u's row only
			// moves forward; once it passes u's last column no later term
			// can match.
			k := 0
			for dw.left > 0 && k < len(cols) {
				x, lw, err := dw.next()
				if err != nil {
					return err
				}
				o2 := lenW - int(lw)
				if o2 <= 0 {
					continue
				}
				if k = gallop(cols, k, x); k == len(cols) || cols[k] != x {
					continue
				}
				total := o1 + o2
				if d := lenU - int(vals[k]); total >= d-p.fuzz && total <= d+p.fuzz {
					p.removed[base+int64(k)] = true
				}
			}
		}
	}
	return nil
}

// gallop returns the first index at or after k whose column is >= x
// (len(cols) if none): an exponential search forward from k, then a
// binary search inside the last step.
func gallop(cols []uint32, k int, x uint32) int {
	if k >= len(cols) || cols[k] >= x {
		return k
	}
	// Invariant: cols[lo] < x, and hi == len(cols) or cols[hi] >= x.
	lo, hi := k, k+1
	for step := 1; hi < len(cols) && cols[hi] < x; step <<= 1 {
		lo, hi = hi, hi+step
	}
	hi = min(hi, len(cols))
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if cols[mid] < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
