package succinct

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/dna"
	"repro/internal/gpu"
	"repro/internal/sgraph"
)

func lenFn(n int) func(uint32) int { return func(uint32) int { return n } }

// overlap is one candidate suffix-prefix overlap u->v of length l.
type overlap struct {
	u, v uint32
	l    uint16
}

// overlapEdges turns candidate overlaps into the sorted edge stream the
// pipeline feeds the builder: self-loops and hairpins dropped, every
// other candidate stored with its complement edge — the rules of
// sgraph.Graph.AddOverlap.
func overlapEdges(ovs []overlap) []Edge {
	var edges []Edge
	for _, o := range ovs {
		if o.u == o.v || o.u == dna.ComplementVertex(o.v) {
			continue
		}
		edges = append(edges,
			Edge{U: o.u, V: o.v, Len: o.l},
			Edge{U: dna.ComplementVertex(o.v), V: dna.ComplementVertex(o.u), Len: o.l})
	}
	sort.Slice(edges, func(i, j int) bool {
		ei, ej := edges[i], edges[j]
		if ei.U != ej.U {
			return ei.U < ej.U
		}
		if ei.V != ej.V {
			return ei.V < ej.V
		}
		return ei.Len < ej.Len
	})
	return edges
}

// buildOverlaps builds the store over 2*numReads vertices from
// candidate overlaps.
func buildOverlaps(t *testing.T, numReads int, ovs []overlap) *Graph {
	t.Helper()
	g, err := FromEdgeRuns(2*numReads, sliceIter(overlapEdges(ovs)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// liveEdges drains a reduction's LiveEdges iterator.
func liveEdges(t *testing.T, r *Reduction) []Edge {
	t.Helper()
	var out []Edge
	next := r.LiveEdges()
	for {
		e, ok, err := next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// reduceAll runs TransitiveReduce with the given config defaults filled.
func reduceAll(t *testing.T, g *Graph, cfg ReduceConfig) *Reduction {
	t.Helper()
	if cfg.Device == nil {
		cfg.Device = testDevice()
	}
	red, err := g.TransitiveReduce(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return red
}

// randomOverlapGraph builds a dense-ish consistent overlap graph plus
// noise, identically into the store and an sgraph.Graph.
func randomOverlapGraph(t *testing.T, rng *rand.Rand, numReads, vertexLen int) (*Graph, *sgraph.Graph) {
	t.Helper()
	var ovs []overlap
	// Reads laid out at increasing genomic offsets; consistent overlaps
	// between nearby reads.
	offsets := make([]int, numReads)
	pos := 0
	for i := range offsets {
		pos += 1 + rng.Intn(vertexLen/2)
		offsets[i] = pos
	}
	for i := 0; i < numReads; i++ {
		for j := i + 1; j < numReads; j++ {
			d := offsets[j] - offsets[i]
			if d <= 0 || d >= vertexLen {
				continue
			}
			ovs = append(ovs, overlap{uint32(2 * i), uint32(2 * j), uint16(vertexLen - d)})
		}
	}
	// Noise: repeat-like edges with lengths that need not be consistent.
	for k := 0; k < numReads; k++ {
		ovs = append(ovs, overlap{
			uint32(rng.Intn(2 * numReads)), uint32(rng.Intn(2 * numReads)),
			uint16(1 + rng.Intn(vertexLen-1))})
	}
	sg := sgraph.New(numReads)
	for _, o := range ovs {
		sg.AddOverlap(o.u, o.v, o.l)
	}
	return buildOverlaps(t, numReads, ovs), sg
}

// closure computes the Floyd–Warshall reachability closure over the
// given directed edges. Small n only.
func closure(n int, edges []Edge) []bool {
	reach := make([]bool, n*n)
	for _, e := range edges {
		reach[int(e.U)*n+int(e.V)] = true
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !reach[i*n+k] {
				continue
			}
			for j := 0; j < n; j++ {
				if reach[k*n+j] {
					reach[i*n+j] = true
				}
			}
		}
	}
	return reach
}

// TestReducePreservesReachability is the engine's core safety property:
// on random DAG-ish overlap graphs, masking transitive edges never
// changes which vertices can reach which.
func TestReducePreservesReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 25; trial++ {
		numReads := 8 + rng.Intn(25)
		vertexLen := 60 + rng.Intn(80)
		g, _ := randomOverlapGraph(t, rng, numReads, vertexLen)
		fuzz := 0
		if trial%3 == 1 {
			fuzz = 1 + rng.Intn(8)
		}
		red := reduceAll(t, g, ReduceConfig{
			VertexLen: lenFn(vertexLen), Fuzz: fuzz, RowBatch: 1 + rng.Intn(16),
		})
		n := g.NumVertices()
		before, after := closure(n, collect(t, g)), closure(n, liveEdges(t, red))
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("trial %d (fuzz %d): reachability %d->%d changed (%v -> %v), removed %d/%d",
					trial, fuzz, i/n, i%n, before[i], after[i], red.Removed, g.NNZ())
			}
		}
	}
}

// TestReduceRemovesSupersetOfSgraph pins the refinement contract against
// the Myers sweep oracle: every edge sgraph.TransitiveReduce removes,
// the masked pass removes too. The converse need not hold — the sweep
// skips witness chains whose first hop was already eliminated; the
// masked pass considers every chain of the unreduced graph.
func TestReduceRemovesSupersetOfSgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	sawStrict := false
	for trial := 0; trial < 25; trial++ {
		numReads := 8 + rng.Intn(25)
		vertexLen := 60 + rng.Intn(80)
		g, sg := randomOverlapGraph(t, rng, numReads, vertexLen)
		fuzz := 0
		if trial%3 == 2 {
			fuzz = 1 + rng.Intn(8)
		}
		sgRemoved := sg.TransitiveReduce(lenFn(vertexLen), fuzz)
		red := reduceAll(t, g, ReduceConfig{
			VertexLen: lenFn(vertexLen), Fuzz: fuzz, RowBatch: 1 + rng.Intn(16),
		})
		if red.Removed < sgRemoved {
			t.Errorf("trial %d: succinct removed %d < sgraph removed %d",
				trial, red.Removed, sgRemoved)
		}
		if red.Removed > sgRemoved {
			sawStrict = true
		}
		liveSet := make(map[[2]uint32]bool)
		for _, e := range liveEdges(t, red) {
			liveSet[[2]uint32{e.U, e.V}] = true
		}
		for _, e := range sg.ReducedEdges() {
			if liveSet[[2]uint32{e.U, e.V}] {
				t.Errorf("trial %d (fuzz %d): sgraph removed %d->%d but succinct kept it",
					trial, fuzz, e.U, e.V)
			}
		}
	}
	if !sawStrict {
		t.Log("no trial exercised the strict-superset case (all removals equal)")
	}
}

// TestReduceAgreesWithSgraphOnChains checks exact agreement on clean
// linear-chain graphs, where both reductions must remove exactly the
// skip edges and the surviving edge sets must be identical.
func TestReduceAgreesWithSgraphOnChains(t *testing.T) {
	const numReads, vertexLen = 12, 100
	var ovs []overlap
	sg := sgraph.New(numReads)
	for i := 0; i+1 < numReads; i++ {
		ovs = append(ovs, overlap{uint32(2 * i), uint32(2 * (i + 1)), 70})
		sg.AddOverlap(uint32(2*i), uint32(2*(i+1)), 70)
		if i+2 < numReads {
			ovs = append(ovs, overlap{uint32(2 * i), uint32(2 * (i + 2)), 40})
			sg.AddOverlap(uint32(2*i), uint32(2*(i+2)), 40)
		}
	}
	sgRemoved := sg.TransitiveReduce(lenFn(vertexLen), 0)
	red := reduceAll(t, buildOverlaps(t, numReads, ovs), ReduceConfig{VertexLen: lenFn(vertexLen)})
	if red.Removed != sgRemoved {
		t.Fatalf("removed: succinct %d != sgraph %d", red.Removed, sgRemoved)
	}
	liveSet := make(map[[2]uint32]uint16)
	for _, e := range liveEdges(t, red) {
		liveSet[[2]uint32{e.U, e.V}] = e.Len
	}
	sgLive := sg.DirectedEdges()
	if len(sgLive) != len(liveSet) {
		t.Fatalf("live edges: succinct %d != sgraph %d", len(liveSet), len(sgLive))
	}
	for _, e := range sgLive {
		if l, ok := liveSet[[2]uint32{e.U, e.V}]; !ok || l != e.Len {
			t.Errorf("edge %d->%d (len %d) mismatch in succinct live set", e.U, e.V, e.Len)
		}
	}
}

// triangle is the sgraph_test.go fixture: a->b (80), b->c (80), a->c
// (ac) over length-100 reads.
func triangle(t *testing.T, ac uint16) *Graph {
	return buildOverlaps(t, 3, []overlap{{0, 2, 80}, {2, 4, 80}, {0, 4, ac}})
}

// With a->c of length 60, a->c and its complement are transitive.
func TestTransitiveReduceTriangleMatchesSgraph(t *testing.T) {
	red := reduceAll(t, triangle(t, 60), ReduceConfig{VertexLen: lenFn(100)})
	if red.Removed != 2 {
		t.Fatalf("removed = %d, want 2 (a->c and complement)", red.Removed)
	}
	for _, e := range liveEdges(t, red) {
		if e.U == 0 && e.V == 4 {
			t.Error("transitive edge a->c survived")
		}
	}
}

// The inconsistent-edge fixture: overhangs 20+20 vs a direct overhang
// of 50 — kept at fuzz 0, removed at fuzz 10.
func TestTransitiveReduceFuzzMatchesSgraph(t *testing.T) {
	if red := reduceAll(t, triangle(t, 50), ReduceConfig{VertexLen: lenFn(100)}); red.Removed != 0 {
		t.Fatalf("fuzz 0 removed = %d, want 0", red.Removed)
	}
	if red := reduceAll(t, triangle(t, 50), ReduceConfig{VertexLen: lenFn(100), Fuzz: 10}); red.Removed != 2 {
		t.Fatalf("fuzz 10 removed = %d, want 2", red.Removed)
	}
}

func TestLiveEdgesMatchesLive(t *testing.T) {
	red := reduceAll(t, triangle(t, 60), ReduceConfig{VertexLen: lenFn(100)})
	var viaLive []Edge
	if err := red.Live(func(e Edge) { viaLive = append(viaLive, e) }); err != nil {
		t.Fatal(err)
	}
	if viaIter := liveEdges(t, red); !reflect.DeepEqual(viaLive, viaIter) {
		t.Errorf("Live %v != LiveEdges %v", viaLive, viaIter)
	}
}

func TestFromEdgeRunsRoundTrip(t *testing.T) {
	g := buildOverlaps(t, 4, []overlap{{0, 2, 50}, {2, 4, 60}, {4, 6, 30}})
	g2, err := FromEdgeRuns(g.NumVertices(), sliceIter(collect(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(collect(t, g), collect(t, g2)) {
		t.Errorf("round trip changed the store")
	}
}

// TestReduceDeterministicAcrossStreamsAndResidency pins that streams
// on/off and in-core/out-of-core execution change neither the removal
// mask nor any cost counter except modeled overlap.
func TestReduceDeterministicAcrossStreamsAndResidency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, _ := randomOverlapGraph(t, rng, 30, 100)

	type run struct {
		name    string
		ledger  *costmodel.OverlapLedger
		maxRes  int64
		counter costmodel.Counters
		removed int64
		flops   int64
	}
	// The streamed run is also out-of-core: savings come from the next
	// tile's H2D prefetch overlapping the current tile's compute, so a
	// fully resident store legitimately has nothing to hide.
	runs := []*run{
		{name: "plain"},
		{name: "streams", maxRes: 64,
			ledger: costmodel.NewOverlapLedger(gpu.K40.CostProfile(
				costmodel.DefaultDisk.ReadBps, costmodel.DefaultDisk.WriteBps))},
		{name: "out-of-core", maxRes: 64},
	}
	for _, r := range runs {
		dev := testDevice()
		red := reduceAll(t, g, ReduceConfig{
			Device: dev, VertexLen: lenFn(100), RowBatch: 7,
			Overlap: r.ledger, MaxResidentBytes: r.maxRes,
		})
		r.counter = dev.Meter().Snapshot()
		r.removed = red.Removed
		r.flops = red.Flops
	}
	base := runs[0]
	for _, r := range runs[1:] {
		if r.removed != base.removed || r.flops != base.flops {
			t.Errorf("%s: removed/flops = %d/%d, want %d/%d",
				r.name, r.removed, r.flops, base.removed, base.flops)
		}
	}
	// Streams change no counter at all versus the same residency; the
	// out-of-core runs only add PCIe versus the resident one.
	if runs[1].counter != runs[2].counter {
		t.Errorf("streams changed counters: %+v vs %+v", runs[1].counter, runs[2].counter)
	}
	ooc := runs[2].counter
	if ooc.PCIeBytes <= base.counter.PCIeBytes {
		t.Errorf("out-of-core should stream more PCIe: %d vs %d",
			ooc.PCIeBytes, base.counter.PCIeBytes)
	}
	ooc.PCIeBytes = base.counter.PCIeBytes
	if ooc != base.counter {
		t.Errorf("out-of-core changed non-PCIe counters: %+v vs %+v",
			runs[2].counter, base.counter)
	}
	if runs[1].ledger.SavedSeconds() <= 0 {
		t.Errorf("streamed run saved no modeled time")
	}
}

func TestReduceChargesDevice(t *testing.T) {
	dev := testDevice()
	red := reduceAll(t, triangle(t, 60), ReduceConfig{Device: dev, VertexLen: lenFn(100)})
	snap := dev.Meter().Snapshot()
	if snap.DeviceOps == 0 || snap.DeviceMemBytes == 0 {
		t.Errorf("reduction charged no device work: %+v", snap)
	}
	if snap.PCIeBytes == 0 {
		t.Errorf("reduction charged no transfers: %+v", snap)
	}
	if red.Flops == 0 {
		t.Error("no flops counted on a graph with products")
	}
	if dev.InUse() != 0 {
		t.Errorf("device memory leaked: %d bytes", dev.InUse())
	}
}

func TestReduceCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, _ := randomOverlapGraph(t, rng, 20, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := g.TransitiveReduce(ctx, ReduceConfig{Device: testDevice(), VertexLen: lenFn(100)})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
