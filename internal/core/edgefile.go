package core

import (
	"fmt"
	"io"

	"repro/internal/costmodel"
	"repro/internal/kv"
	"repro/internal/kvio"
)

// The Reduce stage always persists its accepted edge list to this file
// (workspace-relative), and the Compress stage always rebuilds the overlap
// graph from it. Routing the cold path and the resumed path through the
// same artifact is what makes resumed output byte-identical by
// construction rather than by careful bookkeeping: Compress cannot tell
// whether Reduce ran five milliseconds or five days ago.
const edgeFileName = "edges.kv"

// persistedEdge is one directed overlap edge as stored in edges.kv. Edges
// are serialized through the kvio record machinery (and so inherit its
// metering and truncation hardening): u and v pack into Key.Hi, the
// overlap length into Key.Lo, and Val is unused.
type persistedEdge struct {
	U, V uint32
	Len  uint16
}

func (e persistedEdge) pair() kv.Pair {
	return kv.Pair{Key: kv.Key{Hi: uint64(e.U)<<32 | uint64(e.V), Lo: uint64(e.Len)}}
}

func edgeFromPair(p kv.Pair) persistedEdge {
	return persistedEdge{U: uint32(p.Key.Hi >> 32), V: uint32(p.Key.Hi), Len: uint16(p.Key.Lo)}
}

// writeEdgeFile streams edges to path in the order produced by next (which
// returns false when exhausted, or an error that aborts the write). The
// order is preserved on reload, so any insertion-order-sensitive graph
// construction survives a round trip.
func writeEdgeFile(path string, meter *costmodel.Meter, next func() (persistedEdge, bool, error)) (int64, error) {
	w, err := kvio.NewWriter(path, meter)
	if err != nil {
		return 0, err
	}
	var n int64
	for {
		e, ok, err := next()
		if err != nil {
			w.Close()
			return n, err
		}
		if !ok {
			break
		}
		if err := w.Write(e.pair()); err != nil {
			w.Close()
			return n, err
		}
		n++
	}
	return n, w.Close()
}

// edgeFileIterator streams edges.kv pull-style for consumers that need a
// next() interface — the succinct store build validates ordering as it
// consumes, so it cannot use the push-style readEdgeFile.
type edgeFileIterator struct {
	r      *kvio.Reader
	buf    []kv.Pair
	pos, n int
	eof    bool
}

func newEdgeFileIterator(path string, meter *costmodel.Meter) (*edgeFileIterator, error) {
	r, err := kvio.NewReader(path, meter)
	if err != nil {
		return nil, err
	}
	return &edgeFileIterator{r: r, buf: make([]kv.Pair, 4096)}, nil
}

// Next returns the next edge in file order; ok is false at end of file.
func (it *edgeFileIterator) Next() (persistedEdge, bool, error) {
	for it.pos >= it.n {
		if it.eof {
			return persistedEdge{}, false, nil
		}
		n, err := it.r.ReadBatch(it.buf)
		it.pos, it.n = 0, n
		if err == io.EOF {
			it.eof = true
		} else if err != nil {
			return persistedEdge{}, false, fmt.Errorf("core: reading edge file: %w", err)
		}
	}
	e := edgeFromPair(it.buf[it.pos])
	it.pos++
	return e, true, nil
}

func (it *edgeFileIterator) Close() error { return it.r.Close() }

// readEdgeFile streams every edge at path into apply, in file order.
func readEdgeFile(path string, meter *costmodel.Meter, apply func(persistedEdge)) error {
	r, err := kvio.NewReader(path, meter)
	if err != nil {
		return err
	}
	defer r.Close()
	buf := make([]kv.Pair, 4096)
	for {
		n, err := r.ReadBatch(buf)
		for _, p := range buf[:n] {
			apply(edgeFromPair(p))
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("core: reading edge file %s: %w", path, err)
		}
	}
}
