// Package succinct implements the compressed overlap-graph store: the
// string graph's adjacency encoded as delta-compressed byte streams
// indexed by Elias–Fano offset sequences, built in a single streaming
// pass straight off the sorted edge runs the external sort emits.
//
// Dinh & Rajasekaran (arXiv:1009.3984) give a near-linear-space exact
// overlap-graph structure; Li et al. (arXiv:1207.3532) show the
// compressed-bitvector playbook for assembly graphs. This package
// follows that line with stdlib-only pieces: per-vertex edge intervals
// over rank/select-indexed bitvectors (bitvec.EliasFano for both the
// rowPtr analogue and the byte offsets into the adjacency stream), and
// per-row varint gap coding of target vertices with zig-zag deltas for
// overlap lengths.
//
// Space: a CSR matrix spends 8 bytes per row pointer plus 6 per entry;
// the raw edge list spends 10 per entry. Here a typical entry costs
// 2-3 bytes (one varint column gap + one varint length delta) and the
// two offset sequences cost ~2(2 + log2(nnz/n)) bits per vertex, so
// host peak drops by well over 2x — and, crucially, the builder never
// holds an uncompressed edge list or rowPtr array: its transient state
// is one pending edge plus compact per-row varint streams.
package succinct

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitvec"
)

// Edge is one directed overlap edge: the Len-suffix of vertex U matches
// the Len-prefix of vertex V.
type Edge struct {
	U, V uint32
	Len  uint16
}

// MemSink is the subset of stats.MemTracker the builder meters its host
// bytes through; a nil sink disables metering.
type MemSink interface {
	Add(n int64)
	Release(n int64)
}

// Graph is the sealed compressed store. It is immutable after Finish
// and safe for concurrent readers.
type Graph struct {
	n   int
	nnz int64
	// adj holds the per-row edge encodings back to back: within a row,
	// the first edge is uvarint(col) + uvarint(len), each subsequent
	// edge uvarint(col gap) + zig-zag uvarint(len delta).
	adj     []byte
	edgeOff *bitvec.EliasFano // n+1 cumulative edge counts (rowPtr analogue)
	byteOff *bitvec.EliasFano // n+1 cumulative byte offsets into adj

	hostBytes int64 // tracked host charge still held (see HostBytes)
}

// NumVertices returns the graph dimension (2*numReads).
func (g *Graph) NumVertices() int { return g.n }

// NumReads returns the read count (vertices are read strands, 2 per
// read). It is part of the sgraph.Traversable contract.
func (g *Graph) NumReads() int { return g.n / 2 }

// NNZ returns the number of stored directed edges.
func (g *Graph) NNZ() int64 { return g.nnz }

// Bytes is the structural size of the compressed store: the adjacency
// stream plus both offset sequences. It is the store's device-transfer
// footprint and a pure function of the structure.
func (g *Graph) Bytes() int64 {
	return int64(len(g.adj)) + g.edgeOff.Bytes() + g.byteOff.Bytes()
}

// HostBytes is the number of bytes currently charged to the builder's
// MemSink on the graph's behalf; the owner releases it when the graph
// is dropped.
func (g *Graph) HostBytes() int64 { return g.hostBytes }

// Degree returns the out-degree of vertex u: one select-once pair read
// of the edge offsets.
func (g *Graph) Degree(u uint32) (int64, error) {
	lo, hi, err := g.edgeOff.GetPair(int(u))
	if err != nil {
		return 0, fmt.Errorf("succinct: edge offsets of vertex %d: %w", u, err)
	}
	return int64(hi - lo), nil
}

// zigzag codes a signed delta as an unsigned varint payload.
func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// rowDecoder steps through one row's entries in the adjacency stream.
// Every read is bounds-checked, so a corrupt stream yields an error,
// never a panic or an out-of-range column.
type rowDecoder struct {
	u    uint32
	n    uint64 // vertex count: columns must stay below it
	buf  []byte // the row's undecoded bytes
	left int64  // entries not yet decoded
	// The previous entry, which the next one is a delta from; begun is
	// false before the row's first (absolutely coded) entry.
	col   uint64
	l     uint16
	begun bool
}

func (d *rowDecoder) corrupt() error {
	return fmt.Errorf("succinct: corrupt adjacency stream in row %d", d.u)
}

// next decodes the row's next entry; the caller checks d.left > 0.
func (d *rowDecoder) next() (uint32, uint16, error) {
	cv, k := binary.Uvarint(d.buf)
	if k <= 0 {
		return 0, 0, d.corrupt()
	}
	lv, k2 := binary.Uvarint(d.buf[k:])
	if k2 <= 0 || cv >= d.n {
		return 0, 0, d.corrupt()
	}
	d.buf = d.buf[k+k2:]
	d.left--
	if d.begun {
		d.col += cv
		d.l = uint16(int64(d.l) + unzigzag(lv))
	} else {
		d.col, d.l, d.begun = cv, uint16(lv), true
	}
	if d.col >= d.n {
		return 0, 0, d.corrupt()
	}
	return uint32(d.col), d.l, nil
}

// done reports whether the row decoded to exactly its byte range.
func (d *rowDecoder) done() error {
	if len(d.buf) != 0 {
		return fmt.Errorf("succinct: trailing bytes in row %d", d.u)
	}
	return nil
}

// appendTo decodes the rest of the row onto cols and vals.
func (d *rowDecoder) appendTo(cols []uint32, vals []uint16) ([]uint32, []uint16, error) {
	for d.left > 0 {
		c, l, err := d.next()
		if err != nil {
			return cols, vals, err
		}
		cols = append(cols, c)
		vals = append(vals, l)
	}
	return cols, vals, d.done()
}

// rowCursor walks rows front to back: opening it costs one select per
// offset sequence, and every row after that is a forward scan of both.
type rowCursor struct {
	g      *Graph
	u      uint32 // row the next call to next locates
	ec, bc bitvec.Cursor
	e, b   uint64 // row u's first edge index and first byte
}

// rowsFrom opens a row cursor at vertex u, which must be a vertex.
func (g *Graph) rowsFrom(u uint32) (rowCursor, error) {
	if int64(u) >= int64(g.n) {
		return rowCursor{}, fmt.Errorf("succinct: vertex %d out of range for %d vertices", u, g.n)
	}
	rc := rowCursor{g: g, u: u}
	var err error
	if rc.ec, err = g.edgeOff.Cursor(int(u)); err == nil {
		if rc.e, err = rc.ec.Next(); err == nil {
			if rc.bc, err = g.byteOff.Cursor(int(u)); err == nil {
				rc.b, err = rc.bc.Next()
			}
		}
	}
	if err != nil {
		return rowCursor{}, fmt.Errorf("succinct: offsets of vertex %d: %w", u, err)
	}
	return rc, nil
}

// next returns the index of the current row's first edge and a decoder
// over its entries, and advances to the following row.
func (rc *rowCursor) next() (int64, rowDecoder, error) {
	u := rc.u
	e, err := rc.ec.Next()
	if err != nil {
		return 0, rowDecoder{}, fmt.Errorf("succinct: edge offsets of vertex %d: %w", u, err)
	}
	b, err := rc.bc.Next()
	if err != nil {
		return 0, rowDecoder{}, fmt.Errorf("succinct: byte offsets of vertex %d: %w", u, err)
	}
	if e < rc.e || b < rc.b || b > uint64(len(rc.g.adj)) {
		return 0, rowDecoder{}, fmt.Errorf("succinct: corrupt offsets at vertex %d", u)
	}
	base := int64(rc.e)
	d := rowDecoder{u: u, n: uint64(rc.g.n), buf: rc.g.adj[rc.b:b], left: int64(e - rc.e)}
	rc.u++
	rc.e, rc.b = e, b
	return base, d, nil
}

// row locates vertex u's entries with one select-once pair read on each
// offset sequence, returning the index of its first edge and a decoder.
func (g *Graph) row(u uint32) (int64, rowDecoder, error) {
	rc, err := g.rowsFrom(u)
	if err != nil {
		return 0, rowDecoder{}, err
	}
	return rc.next()
}

// DecodeRow appends row u's column indices and overlap lengths to the
// provided scratch slices (which may be nil) and returns them. Columns
// come out strictly ascending, exactly as a CSR row would.
func (g *Graph) DecodeRow(u uint32, cols []uint32, vals []uint16) ([]uint32, []uint16, error) {
	_, d, err := g.row(u)
	if err != nil {
		return cols, vals, err
	}
	return d.appendTo(cols, vals)
}

// EachOut visits the out-edges of v in ascending target order, stopping
// early when fn returns false. It implements sgraph.Traversable over
// the full (unmasked) edge set and decodes in place, allocating nothing.
// The interface has no error return: a decode error ends the visit, and
// cannot occur on a Builder-sealed graph.
func (g *Graph) EachOut(v uint32, fn func(to uint32, l uint16) bool) {
	_, d, err := g.row(v)
	if err != nil {
		return
	}
	for d.left > 0 {
		to, l, err := d.next()
		if err != nil || !fn(to, l) {
			return
		}
	}
}

// Edges streams every entry in CSR order: (u, v) ascending. It returns
// the first decode error, after streaming the entries before it.
func (g *Graph) Edges(fn func(Edge)) error {
	if g.n == 0 {
		return nil
	}
	rc, err := g.rowsFrom(0)
	if err != nil {
		return err
	}
	for u := 0; u < g.n; u++ {
		_, d, err := rc.next()
		if err != nil {
			return err
		}
		for d.left > 0 {
			v, l, err := d.next()
			if err != nil {
				return err
			}
			fn(Edge{U: uint32(u), V: v, Len: l})
		}
		if err := d.done(); err != nil {
			return err
		}
	}
	return nil
}

// Builder assembles a Graph from edges arriving in non-decreasing
// (U, V) order — the order the sorted edge runs stream in. It holds no
// uncompressed edge list: transient state is the pending edge (for
// keep-the-longest dedupe), the growing compressed adjacency stream,
// and compact per-row varint bookkeeping replayed into the Elias–Fano
// offsets at Finish.
type Builder struct {
	n   int
	mem MemSink

	adj []byte
	// rowTmp records (row gap, degree, byte length) varint triples for
	// each non-empty row, in row order — a few bytes per populated row.
	rowTmp []byte

	pending    Edge
	hasPending bool
	lastRowIdx uint32 // last closed row (valid when rowsClosed)
	rowsClosed bool

	curRow     uint32
	curDeg     int64
	rowStart   int
	rowOpen    bool
	prevCol    uint32
	prevLen    uint16
	nnz        int64
	charged    int64
	maxCharged int64
}

// NewBuilder creates a builder over numVertices vertices. mem, when
// non-nil, is charged with the builder's host bytes as they grow; the
// residual charge transfers to the finished Graph (see Graph.HostBytes).
func NewBuilder(numVertices int, mem MemSink) (*Builder, error) {
	if numVertices < 0 {
		return nil, fmt.Errorf("succinct: negative vertex count %d", numVertices)
	}
	return &Builder{n: numVertices, mem: mem}, nil
}

// account re-levels the MemSink charge against the builder's current
// buffer capacities.
func (b *Builder) account() {
	cur := int64(cap(b.adj)) + int64(cap(b.rowTmp)) + 64 // fixed fields
	if cur != b.charged {
		if b.mem != nil {
			b.mem.Add(cur - b.charged)
		}
		b.charged = cur
	}
	if b.charged > b.maxCharged {
		b.maxCharged = b.charged
	}
}

// Push offers the next edge. Records must arrive in non-decreasing
// (U, V) order; exact duplicates dedupe keeping the longest overlap.
// Out-of-range, self-loop, zero-length, or order-regressing records are
// errors — never panics — so a truncated or corrupted edge stream fails
// loudly.
func (b *Builder) Push(e Edge) error {
	if int64(e.U) >= int64(b.n) || int64(e.V) >= int64(b.n) {
		return fmt.Errorf("succinct: edge (%d->%d) out of range for %d vertices", e.U, e.V, b.n)
	}
	if e.U == e.V {
		return fmt.Errorf("succinct: self-loop edge at vertex %d", e.U)
	}
	if e.Len == 0 {
		return fmt.Errorf("succinct: edge (%d->%d) has zero overlap length", e.U, e.V)
	}
	if b.hasPending {
		p := b.pending
		if e.U < p.U || (e.U == p.U && e.V < p.V) {
			return fmt.Errorf("succinct: edge run not sorted: (%d,%d) after (%d,%d)",
				e.U, e.V, p.U, p.V)
		}
		if e.U == p.U && e.V == p.V {
			if e.Len > b.pending.Len {
				b.pending.Len = e.Len
			}
			return nil
		}
		b.encode(p)
	}
	b.pending = e
	b.hasPending = true
	return nil
}

// encode appends one deduped edge to the compressed streams.
func (b *Builder) encode(e Edge) {
	if !b.rowOpen || e.U != b.curRow {
		b.closeRow()
		b.curRow = e.U
		b.rowOpen = true
		b.rowStart = len(b.adj)
		b.adj = binary.AppendUvarint(b.adj, uint64(e.V))
		b.adj = binary.AppendUvarint(b.adj, uint64(e.Len))
	} else {
		b.adj = binary.AppendUvarint(b.adj, uint64(e.V-b.prevCol))
		b.adj = binary.AppendUvarint(b.adj, zigzag(int64(e.Len)-int64(b.prevLen)))
	}
	b.prevCol = e.V
	b.prevLen = e.Len
	b.curDeg++
	b.nnz++
	b.account()
}

// closeRow flushes the open row's bookkeeping triple into rowTmp.
func (b *Builder) closeRow() {
	if !b.rowOpen {
		return
	}
	gap := uint64(b.curRow)
	if b.rowsClosed {
		gap = uint64(b.curRow - b.lastRowIdx)
	}
	b.rowTmp = binary.AppendUvarint(b.rowTmp, gap)
	b.rowTmp = binary.AppendUvarint(b.rowTmp, uint64(b.curDeg))
	b.rowTmp = binary.AppendUvarint(b.rowTmp, uint64(len(b.adj)-b.rowStart))
	b.lastRowIdx = b.curRow
	b.rowsClosed = true
	b.rowOpen = false
	b.curDeg = 0
	b.account()
}

// MaxChargedBytes returns the high-water mark of the builder's MemSink
// charge — the single-pass construction pin: it stays far below the
// uncompressed edge list the builder never materializes.
func (b *Builder) MaxChargedBytes() int64 { return b.maxCharged }

// Abandon releases the builder's residual MemSink charge, for callers
// bailing out before Finish (or after a failed Finish). Idempotent.
func (b *Builder) Abandon() {
	if b.mem != nil && b.charged != 0 {
		b.mem.Release(b.charged)
	}
	b.charged = 0
}

// Finish seals the graph: the per-row bookkeeping replays into the two
// Elias–Fano offset sequences and the transient buffers are released
// from the MemSink, leaving only the compressed structure charged.
func (b *Builder) Finish() (*Graph, error) {
	if b.hasPending {
		b.encode(b.pending)
		b.hasPending = false
	}
	b.closeRow()

	edgeB, err := bitvec.NewEliasFanoBuilder(b.n+1, uint64(b.nnz))
	if err != nil {
		return nil, err
	}
	byteB, err := bitvec.NewEliasFanoBuilder(b.n+1, uint64(len(b.adj)))
	if err != nil {
		return nil, err
	}
	// Replay the non-empty-row triples, filling cumulative offsets for
	// every vertex.
	tmp := b.rowTmp
	nextRow := int64(-1)
	var nextDeg, nextBytes uint64
	var prevRow int64
	advance := func(first bool) error {
		if len(tmp) == 0 {
			nextRow = int64(b.n) // sentinel past the end
			return nil
		}
		gap, n := binary.Uvarint(tmp)
		if n <= 0 {
			return fmt.Errorf("succinct: corrupt row bookkeeping")
		}
		tmp = tmp[n:]
		if first {
			nextRow = int64(gap)
		} else {
			nextRow = prevRow + int64(gap)
		}
		prevRow = nextRow
		if nextDeg, n = binary.Uvarint(tmp); n <= 0 {
			return fmt.Errorf("succinct: corrupt row bookkeeping")
		}
		tmp = tmp[n:]
		if nextBytes, n = binary.Uvarint(tmp); n <= 0 {
			return fmt.Errorf("succinct: corrupt row bookkeeping")
		}
		tmp = tmp[n:]
		return nil
	}
	if err := advance(true); err != nil {
		return nil, err
	}
	var cumDeg, cumBytes uint64
	for i := 0; i <= b.n; i++ {
		if err := edgeB.Append(cumDeg); err != nil {
			return nil, err
		}
		if err := byteB.Append(cumBytes); err != nil {
			return nil, err
		}
		if int64(i) == nextRow {
			cumDeg += nextDeg
			cumBytes += nextBytes
			if err := advance(false); err != nil {
				return nil, err
			}
		}
	}
	edgeOff, err := edgeB.Build()
	if err != nil {
		return nil, err
	}
	byteOff, err := byteB.Build()
	if err != nil {
		return nil, err
	}

	g := &Graph{n: b.n, nnz: b.nnz, adj: b.adj, edgeOff: edgeOff, byteOff: byteOff}
	// Re-level the charge: bookkeeping is gone, offset sequences are in.
	b.rowTmp = nil
	b.account()
	if b.mem != nil {
		b.mem.Add(edgeOff.Bytes() + byteOff.Bytes())
	}
	b.charged += edgeOff.Bytes() + byteOff.Bytes()
	if b.charged > b.maxCharged {
		b.maxCharged = b.charged
	}
	g.hostBytes = b.charged
	return g, nil
}

// FromEdgeRuns builds a Graph from a pull iterator over edges in
// non-decreasing (U, V) order — the CSR order the pipeline persists
// edges.kv in and the order SortStream emits. Duplicates dedupe keeping
// the longest overlap; unordered, out-of-range, zero-length, or
// self-loop records are errors, never panics.
func FromEdgeRuns(numVertices int, next func() (Edge, bool, error)) (*Graph, error) {
	return FromEdgeRunsMetered(numVertices, nil, next)
}

// FromEdgeRunsMetered is FromEdgeRuns with the builder's host bytes
// charged to mem.
func FromEdgeRunsMetered(numVertices int, mem MemSink, next func() (Edge, bool, error)) (*Graph, error) {
	b, err := NewBuilder(numVertices, mem)
	if err != nil {
		return nil, err
	}
	for {
		e, ok, err := next()
		if err != nil {
			b.Abandon()
			return nil, err
		}
		if !ok {
			break
		}
		if err := b.Push(e); err != nil {
			b.Abandon()
			return nil, err
		}
	}
	g, err := b.Finish()
	if err != nil {
		b.Abandon()
		return nil, err
	}
	return g, nil
}
