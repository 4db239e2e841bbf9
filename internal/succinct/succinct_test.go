package succinct

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/stats"
)

func testDevice() *gpu.Device { return gpu.NewDevice(gpu.K40, nil) }

func sliceIter(edges []Edge) func() (Edge, bool, error) {
	i := 0
	return func() (Edge, bool, error) {
		if i >= len(edges) {
			return Edge{}, false, nil
		}
		e := edges[i]
		i++
		return e, true, nil
	}
}

// randomSortedEdges produces a CSR-ordered edge stream with duplicates.
func randomSortedEdges(rng *rand.Rand, numVertices, n int) []Edge {
	var edges []Edge
	for i := 0; i < n; i++ {
		u := uint32(rng.Intn(numVertices))
		v := uint32(rng.Intn(numVertices))
		if u == v {
			continue
		}
		edges = append(edges, Edge{U: u, V: v, Len: uint16(rng.Intn(500) + 1)})
		if rng.Intn(4) == 0 { // duplicate with another length
			edges = append(edges, Edge{U: u, V: v, Len: uint16(rng.Intn(500) + 1)})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		if edges[i].V != edges[j].V {
			return edges[i].V < edges[j].V
		}
		return edges[i].Len < edges[j].Len
	})
	return edges
}

func collect(t testing.TB, g *Graph) []Edge {
	t.Helper()
	var out []Edge
	if err := g.Edges(func(e Edge) { out = append(out, e) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// refCSR is a plain CSR adjacency: the uncompressed layout the store
// and its reduction are checked against.
type refCSR struct {
	n      int
	rowPtr []int64
	col    []uint32
	val    []uint16
}

// refFromSorted packs a (U, V)-sorted edge stream into CSR, keeping the
// longest overlap among exact duplicates.
func refFromSorted(n int, edges []Edge) *refCSR {
	m := &refCSR{n: n, rowPtr: make([]int64, n+1)}
	for i, e := range edges {
		if i > 0 && e.U == edges[i-1].U && e.V == edges[i-1].V {
			if e.Len > m.val[len(m.val)-1] {
				m.val[len(m.val)-1] = e.Len
			}
			continue
		}
		m.col = append(m.col, e.V)
		m.val = append(m.val, e.Len)
		m.rowPtr[e.U+1]++
	}
	for u := 0; u < n; u++ {
		m.rowPtr[u+1] += m.rowPtr[u]
	}
	return m
}

func (m *refCSR) edges() []Edge {
	var out []Edge
	for u := 0; u < m.n; u++ {
		for i := m.rowPtr[u]; i < m.rowPtr[u+1]; i++ {
			out = append(out, Edge{U: uint32(u), V: m.col[i], Len: m.val[i]})
		}
	}
	return out
}

// reduce is the masked two-hop transitive reduction written directly
// over CSR arrays: entry (u, x) is masked when some chain u->w->x with
// strictly positive overhangs o1, o2 satisfies |o1+o2 - (len(u)-l(u,x))|
// <= fuzz. flops counts one product term per (u->w, w->x) pair. It
// returns the surviving edges in CSR order.
func (m *refCSR) reduce(vertexLen func(uint32) int, fuzz int) (live []Edge, removed, flops int64) {
	mask := make([]bool, len(m.col))
	for u := 0; u < m.n; u++ {
		lenU := vertexLen(uint32(u))
		for i := m.rowPtr[u]; i < m.rowPtr[u+1]; i++ {
			w := m.col[i]
			flops += m.rowPtr[w+1] - m.rowPtr[w]
			o1 := lenU - int(m.val[i])
			if o1 <= 0 {
				continue
			}
			lenW := vertexLen(w)
			for j := m.rowPtr[w]; j < m.rowPtr[w+1]; j++ {
				o2 := lenW - int(m.val[j])
				if o2 <= 0 {
					continue
				}
				for k := m.rowPtr[u]; k < m.rowPtr[u+1]; k++ {
					if m.col[k] != m.col[j] {
						continue
					}
					total := o1 + o2
					if d := lenU - int(m.val[k]); total >= d-fuzz && total <= d+fuzz {
						mask[k] = true
					}
				}
			}
		}
	}
	for k, e := range m.edges() {
		if mask[k] {
			removed++
		} else {
			live = append(live, e)
		}
	}
	return live, removed, flops
}

// TestFromEdgeRunsMatchesReference pins the compressed store's contents
// against a plain CSR built from the same stream.
func TestFromEdgeRunsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		nv := rng.Intn(200) + 2
		edges := randomSortedEdges(rng, nv, rng.Intn(600))
		g, err := FromEdgeRuns(nv, sliceIter(edges))
		if err != nil {
			t.Fatal(err)
		}
		m := refFromSorted(nv, edges)
		want := m.edges()
		if g.NNZ() != int64(len(want)) {
			t.Fatalf("trial %d: nnz %d vs reference %d", trial, g.NNZ(), len(want))
		}
		got := collect(t, g)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d edges vs %d", trial, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d: edge %d: %+v vs %+v", trial, k, got[k], want[k])
			}
		}
		// Degrees via the Elias–Fano rowPtr match.
		for u := 0; u < nv; u++ {
			d, err := g.Degree(uint32(u))
			if err != nil {
				t.Fatal(err)
			}
			if want := m.rowPtr[u+1] - m.rowPtr[u]; d != want {
				t.Fatalf("trial %d: degree(%d) = %d, want %d", trial, u, d, want)
			}
		}
	}
}

func TestFromEdgeRunsErrors(t *testing.T) {
	cases := []struct {
		name  string
		nv    int
		edges []Edge
		want  string
	}{
		{"negative_vertices", -1, nil, "negative vertex count"},
		{"out_of_range_u", 4, []Edge{{U: 4, V: 1, Len: 3}}, "out of range"},
		{"out_of_range_v", 4, []Edge{{U: 1, V: 9, Len: 3}}, "out of range"},
		{"self_loop", 4, []Edge{{U: 2, V: 2, Len: 3}}, "self-loop"},
		{"zero_length", 4, []Edge{{U: 1, V: 2, Len: 0}}, "zero overlap length"},
		{"unsorted_u", 4, []Edge{{U: 2, V: 1, Len: 3}, {U: 1, V: 2, Len: 3}}, "not sorted"},
		{"unsorted_v", 4, []Edge{{U: 1, V: 3, Len: 3}, {U: 1, V: 2, Len: 3}}, "not sorted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := FromEdgeRuns(tc.nv, sliceIter(tc.edges))
			if err == nil {
				t.Fatalf("want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
			if !strings.HasPrefix(err.Error(), "succinct:") {
				t.Fatalf("error %q not namespaced", err)
			}
		})
	}
}

// TestFromEdgeRunsStreamError propagates an error from the edge source
// itself, not only from the records it yields, and releases everything
// the builder charged before the failure.
func TestFromEdgeRunsStreamError(t *testing.T) {
	wantErr := errors.New("stream broke")
	var mem stats.MemTracker
	// Two edges, so the first is encoded (and charged) before the error.
	edges := []Edge{{U: 0, V: 2, Len: 10}, {U: 1, V: 3, Len: 10}}
	i := 0
	_, err := FromEdgeRunsMetered(6, &mem, func() (Edge, bool, error) {
		if i >= len(edges) {
			return Edge{}, false, wantErr
		}
		i++
		return edges[i-1], true, nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("stream error not propagated: %v", err)
	}
	if mem.Current() != 0 {
		t.Errorf("failed build still charges %d B", mem.Current())
	}
}

func TestDuplicatesKeepLongest(t *testing.T) {
	g, err := FromEdgeRuns(4, sliceIter([]Edge{
		{U: 1, V: 2, Len: 10},
		{U: 1, V: 2, Len: 30},
		{U: 1, V: 2, Len: 20},
		{U: 1, V: 3, Len: 5},
	}))
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, g)
	want := []Edge{{U: 1, V: 2, Len: 30}, {U: 1, V: 3, Len: 5}}
	if len(got) != len(want) {
		t.Fatalf("edges = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestTransitiveReduceMatchesReference checks the masked pass over the
// compressed store against the brute-force CSR kernel: the identical
// removed count, product-term count, and surviving edge set, through
// both LiveEdges and LiveView.
func TestTransitiveReduceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vertexLen := func(v uint32) int { return 120 + int(v%9) }
	for trial := 0; trial < 15; trial++ {
		numReads := rng.Intn(40) + 4
		nv := 2 * numReads
		var ovs []overlap
		for i := 0; i < 6*numReads; i++ {
			// Lengths reach past the shortest vertex (120), so some
			// overlaps span a whole read: zero or negative overhangs the
			// strict-positivity guard must skip.
			ovs = append(ovs, overlap{uint32(rng.Intn(nv)), uint32(rng.Intn(nv)), uint16(rng.Intn(125) + 10)})
		}
		stream := overlapEdges(ovs)
		g, err := FromEdgeRuns(nv, sliceIter(stream))
		if err != nil {
			t.Fatal(err)
		}
		fuzz := rng.Intn(3)
		wantLive, wantRemoved, wantFlops := refFromSorted(nv, stream).reduce(vertexLen, fuzz)
		gr, err := g.TransitiveReduce(context.Background(), ReduceConfig{
			Device: testDevice(), VertexLen: vertexLen, Fuzz: fuzz})
		if err != nil {
			t.Fatal(err)
		}
		if gr.Removed != wantRemoved || gr.Flops != wantFlops {
			t.Fatalf("trial %d: removed/flops %d/%d vs reference %d/%d",
				trial, gr.Removed, gr.Flops, wantRemoved, wantFlops)
		}
		gotLive := liveEdges(t, gr)
		if len(gotLive) != len(wantLive) {
			t.Fatalf("trial %d: %d live vs %d", trial, len(gotLive), len(wantLive))
		}
		for k := range wantLive {
			if gotLive[k] != wantLive[k] {
				t.Fatalf("trial %d: live %d: %+v vs %+v", trial, k, gotLive[k], wantLive[k])
			}
		}
		// LiveView must agree with LiveEdges.
		var viewLive []Edge
		lv := gr.LiveView()
		for u := uint32(0); u < uint32(nv); u++ {
			lv.EachOut(u, func(to uint32, l uint16) bool {
				viewLive = append(viewLive, Edge{U: u, V: to, Len: l})
				return true
			})
		}
		if len(viewLive) != len(gotLive) {
			t.Fatalf("trial %d: LiveView %d edges vs %d", trial, len(viewLive), len(gotLive))
		}
		for k := range gotLive {
			if viewLive[k] != gotLive[k] {
				t.Fatalf("trial %d: LiveView %d: %+v vs %+v", trial, k, viewLive[k], gotLive[k])
			}
		}
	}
}

// TestTransitiveReduceTilingMatchesReference repeats the reference check
// on graphs large enough for the kernel's scheduling to matter: rows
// longer than a kernel chunk, tiles that split chunks, and rows with
// tens of columns for the merge probe to gallop through. Targets are
// drawn from a window after the source, so two-hop chains — and masked
// entries anywhere in a row, including its last column — are common.
func TestTransitiveReduceTilingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vertexLen := func(v uint32) int { return 120 + int(v%9) }
	for trial := 0; trial < 4; trial++ {
		nv := 2 * (150 + rng.Intn(150))
		window := 8 + rng.Intn(60)
		var ovs []overlap
		for i := 0; i < 12*nv; i++ {
			u := rng.Intn(nv)
			v := (u + 1 + rng.Intn(window)) % nv
			ovs = append(ovs, overlap{uint32(u), uint32(v), uint16(rng.Intn(125) + 10)})
		}
		stream := overlapEdges(ovs)
		g, err := FromEdgeRuns(nv, sliceIter(stream))
		if err != nil {
			t.Fatal(err)
		}
		fuzz := rng.Intn(4)
		wantLive, wantRemoved, wantFlops := refFromSorted(nv, stream).reduce(vertexLen, fuzz)
		for _, rowBatch := range []int{1, kernelChunkRows - 1, kernelChunkRows, kernelChunkRows + 1, 150, 0} {
			gr := reduceAll(t, g, ReduceConfig{VertexLen: vertexLen, Fuzz: fuzz, RowBatch: rowBatch})
			if gr.Removed != wantRemoved || gr.Flops != wantFlops {
				t.Fatalf("trial %d, row batch %d: removed/flops %d/%d vs reference %d/%d",
					trial, rowBatch, gr.Removed, gr.Flops, wantRemoved, wantFlops)
			}
			gotLive := liveEdges(t, gr)
			if len(gotLive) != len(wantLive) {
				t.Fatalf("trial %d, row batch %d: %d live vs %d", trial, rowBatch, len(gotLive), len(wantLive))
			}
			for k := range wantLive {
				if gotLive[k] != wantLive[k] {
					t.Fatalf("trial %d, row batch %d: live %d: %+v vs %+v",
						trial, rowBatch, k, gotLive[k], wantLive[k])
				}
			}
		}
	}
}

// TestBuilderSinglePass pins the streaming construction: the peak bytes
// the builder charges stay below the uncompressed edge list (10 B/entry,
// the raw COO footprint) and below the CSR layout, because the builder
// never materializes either.
func TestBuilderSinglePass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nv := 4000
	edges := randomSortedEdges(rng, nv, 30000)
	var mem stats.MemTracker
	b, err := NewBuilder(nv, &mem)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := b.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	edgeList := 10 * g.NNZ()
	csr := 8*int64(nv+1) + 6*g.NNZ()
	if b.MaxChargedBytes() >= edgeList {
		t.Fatalf("builder peak %d not below edge-list %d bytes", b.MaxChargedBytes(), edgeList)
	}
	if mem.Peak() >= edgeList {
		t.Fatalf("tracker peak %d not below edge-list %d bytes", mem.Peak(), edgeList)
	}
	if g.Bytes() >= csr {
		t.Fatalf("sealed graph %d bytes not below CSR %d", g.Bytes(), csr)
	}
	if mem.Current() != g.HostBytes() {
		t.Fatalf("tracker current %d != HostBytes %d", mem.Current(), g.HostBytes())
	}
	mem.Release(g.HostBytes())
	if mem.Current() != 0 {
		t.Fatalf("tracker leaks %d bytes after release", mem.Current())
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := FromEdgeRuns(0, sliceIter(nil))
	if err != nil {
		t.Fatal(err)
	}
	if g.NNZ() != 0 || g.NumVertices() != 0 {
		t.Fatalf("empty graph: nnz=%d n=%d", g.NNZ(), g.NumVertices())
	}
	r, err := g.TransitiveReduce(context.Background(), ReduceConfig{
		Device: testDevice(), VertexLen: func(uint32) int { return 100 }})
	if err != nil {
		t.Fatal(err)
	}
	if r.Removed != 0 {
		t.Fatalf("removed = %d", r.Removed)
	}
}

// corruptRowEnd sets the continuation bit on the last byte of vertex
// u's row, so the row's final varint runs past the row's byte range: a
// corruption every decode of that row must report.
func corruptRowEnd(t *testing.T, g *Graph, u uint32) {
	t.Helper()
	_, end, err := g.byteOff.GetPair(int(u))
	if err != nil {
		t.Fatal(err)
	}
	if deg, err := g.Degree(u); err != nil || deg == 0 {
		t.Fatalf("vertex %d: degree %d, %v; want a non-empty row", u, deg, err)
	}
	g.adj[end-1] |= 0x80
}

// TestCorruptStoreFailsLoudly flips one adjacency byte of a sealed graph
// and requires both consumers of the stream to return an error rather
// than a silently truncated result: TransitiveReduce, fully resident and
// out-of-core, and the LiveEdges iterator that feeds edges.kv.
func TestCorruptStoreFailsLoudly(t *testing.T) {
	build := func() *Graph {
		g, _ := randomOverlapGraph(t, rand.New(rand.NewSource(7)), 60, 100)
		return g
	}
	g := build()
	// A row in the middle of the store, so the corruption is neither the
	// first nor the last thing either path decodes.
	u := uint32(g.NumVertices() / 2)
	for deg, _ := g.Degree(u); deg == 0; deg, _ = g.Degree(u) {
		u++
	}
	corruptRowEnd(t, g, u)
	for _, maxRes := range []int64{0, 64} {
		_, err := g.TransitiveReduce(context.Background(), ReduceConfig{
			Device: testDevice(), VertexLen: lenFn(100), RowBatch: 8, MaxResidentBytes: maxRes})
		if err == nil {
			t.Errorf("TransitiveReduce (max resident %d) on a corrupt store returned no error", maxRes)
		} else if !strings.Contains(err.Error(), "corrupt adjacency stream") {
			t.Errorf("TransitiveReduce error %q does not name the corruption", err)
		}
	}

	// LiveEdges: reduce the intact store, then corrupt it under the
	// reduction and drain.
	g = build()
	red := reduceAll(t, g, ReduceConfig{VertexLen: lenFn(100)})
	want := len(liveEdges(t, red))
	corruptRowEnd(t, g, u)
	next := red.LiveEdges()
	got := 0
	var err error
	for {
		var ok bool
		if _, ok, err = next(); err != nil || !ok {
			break
		}
		got++
	}
	if err == nil {
		t.Fatalf("LiveEdges on a corrupt store ended after %d of %d edges with no error", got, want)
	}
	if _, ok, again := next(); ok || again == nil {
		t.Errorf("LiveEdges after an error returned ok=%v, err=%v; want the error again", ok, again)
	}
	if err := red.Live(func(Edge) {}); err == nil {
		t.Error("Live on a corrupt store returned no error")
	}
}

// TestCorruptStoreNeverPanics overwrites random adjacency bytes and runs
// every decoding path over the damaged store: each may return an error
// (or, where the damage still decodes, a wrong graph) but none may panic
// or index out of range.
func TestCorruptStoreNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		g, _ := randomOverlapGraph(t, rand.New(rand.NewSource(int64(trial))), 30, 100)
		red := reduceAll(t, g, ReduceConfig{VertexLen: lenFn(100)})
		for i := 0; i < 1+rng.Intn(4); i++ {
			g.adj[rng.Intn(len(g.adj))] = byte(rng.Intn(256))
		}
		g.TransitiveReduce(context.Background(), ReduceConfig{
			Device: testDevice(), VertexLen: lenFn(100), RowBatch: 1 + rng.Intn(20)})
		for next := red.LiveEdges(); ; {
			if _, ok, err := next(); !ok || err != nil {
				break
			}
		}
		g.Edges(func(Edge) {})
		lv := red.LiveView()
		for u := uint32(0); u < uint32(g.NumVertices()); u++ {
			g.DecodeRow(u, nil, nil)
			g.EachOut(u, func(uint32, uint16) bool { return true })
			lv.EachOut(u, func(uint32, uint16) bool { return true })
		}
	}
}
