package core

import (
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/dna"
	"repro/internal/extsort"
	"repro/internal/gpu"
	"repro/internal/stats"
	"repro/internal/succinct"
)

// reduceOverlaps runs reduceSuccinct over a fixed candidate list on
// numReads length-100 reads and returns the store's edges, the
// reduction, and the host tracker it charged.
func reduceOverlaps(t *testing.T, numReads int, ovs [][3]int) ([]succinct.Edge, *succinct.Reduction, *stats.MemTracker) {
	t.Helper()
	rs := dna.NewReadSet(numReads, 100*numReads)
	for i := 0; i < numReads; i++ {
		rs.Append(make(dna.Seq, 100))
	}
	meter := costmodel.NewMeter()
	var mem stats.MemTracker
	red, err := reduceSuccinct(context.Background(), extsort.Config{
		Device:           gpu.NewDevice(gpu.K40, meter),
		Meter:            meter,
		HostMem:          &mem,
		HostBlockPairs:   64,
		DeviceBlockPairs: 16,
		TempDir:          filepath.Join(t.TempDir(), "sort_succinct"),
	}, &mem, rs, func(add AddFunc) error {
		for _, o := range ovs {
			add(uint32(o[0]), uint32(o[1]), uint16(o[2]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var edges []succinct.Edge
	if err := red.Graph().Edges(func(e succinct.Edge) { edges = append(edges, e) }); err != nil {
		t.Fatal(err)
	}
	return edges, red, &mem
}

// TestReduceSuccinctMirrorsSgraphRules pins the candidate admission rule
// of the shared string-graph reduce: self-loops and hairpins are
// dropped, every other candidate is stored with its complement edge, and
// duplicates keep the longest overlap — sgraph.Graph.AddOverlap's rules.
func TestReduceSuccinctMirrorsSgraphRules(t *testing.T) {
	edges, red, mem := reduceOverlaps(t, 3, [][3]int{
		{0, 0, 10}, // self-loop
		{0, 1, 10}, // hairpin: 1 is 0's reverse complement
		{0, 2, 50},
		{0, 2, 40}, // duplicate, shorter
	})
	// 0->2 (50) and its complement 3->1 (50), in CSR order.
	want := []succinct.Edge{{U: 0, V: 2, Len: 50}, {U: 3, V: 1, Len: 50}}
	if !reflect.DeepEqual(edges, want) {
		t.Fatalf("store edges = %+v, want %+v", edges, want)
	}
	if red.Removed != 0 {
		t.Errorf("removed %d edges from a graph with no two-hop paths", red.Removed)
	}
	if mem.Current() != red.Graph().HostBytes() || mem.Current() == 0 {
		t.Errorf("tracker holds %d B, store charge %d B", mem.Current(), red.Graph().HostBytes())
	}
}

// TestReduceSuccinctOrderIndependent pins that candidate arrival order —
// worker interleaving, cluster node order — never reaches the store:
// the sorted spill makes it a function of the candidate set alone.
func TestReduceSuccinctOrderIndependent(t *testing.T) {
	ovs := [][3]int{{0, 2, 50}, {2, 4, 60}, {0, 4, 20}, {4, 6, 30}, {0, 2, 45}}
	want, wantRed, _ := reduceOverlaps(t, 4, ovs)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		shuffled := append([][3]int(nil), ovs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got, red, _ := reduceOverlaps(t, 4, shuffled)
		if !reflect.DeepEqual(got, want) || red.Removed != wantRed.Removed {
			t.Fatalf("trial %d: arrival order leaked into the store:\n%v\n%v", trial, got, want)
		}
	}
}

// TestReduceSuccinctDuplicateKeepsLongest pins keep-the-longest dedupe
// when the longest of several duplicate candidates arrives neither first
// nor last, for the candidate and its complement alike.
func TestReduceSuccinctDuplicateKeepsLongest(t *testing.T) {
	edges, _, _ := reduceOverlaps(t, 2, [][3]int{{0, 2, 30}, {0, 2, 40}, {0, 2, 20}})
	want := []succinct.Edge{{U: 0, V: 2, Len: 40}, {U: 3, V: 1, Len: 40}}
	if !reflect.DeepEqual(edges, want) {
		t.Fatalf("store edges = %+v, want %+v", edges, want)
	}
}
