package succinct

import (
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/gpu"
)

// TestReduceChargesGolden pins the exact modeled charges of one fixed
// seeded reduction, fully resident and out-of-core, with and without an
// overlap ledger. Charges are pure functions of the graph's structure,
// so any host-side rework of the pass (decode path, scheduling, probe)
// must leave every number here unchanged.
func TestReduceChargesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(1404))
	g, _ := randomOverlapGraph(t, rng, 160, 100)
	if g.NNZ() != goldenNNZ {
		t.Fatalf("fixture nnz = %d, want %d (the seeded graph changed)", g.NNZ(), goldenNNZ)
	}
	cases := []struct {
		name    string
		maxRes  int64
		ledger  bool
		counter costmodel.Counters
		saved   float64
	}{
		{name: "resident", counter: goldenResident},
		{name: "resident-streams", ledger: true, counter: goldenResident, saved: goldenResidentSaved},
		{name: "out-of-core", maxRes: 256, counter: goldenOutOfCore},
		{name: "out-of-core-streams", maxRes: 256, ledger: true, counter: goldenOutOfCore, saved: goldenOutOfCoreSaved},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dev := gpu.NewDevice(gpu.K40, costmodel.NewMeter())
			var ledger *costmodel.OverlapLedger
			if c.ledger {
				ledger = costmodel.NewOverlapLedger(gpu.K40.CostProfile(
					costmodel.DefaultDisk.ReadBps, costmodel.DefaultDisk.WriteBps))
			}
			red := reduceAll(t, g, ReduceConfig{
				Device: dev, VertexLen: lenFn(100), RowBatch: 24,
				MaxResidentBytes: c.maxRes, Overlap: ledger,
			})
			if got := dev.Meter().Snapshot(); got != c.counter {
				t.Errorf("meter = %+v, want %+v", got, c.counter)
			}
			if red.Flops != goldenFlops || red.Removed != goldenRemoved || red.Tiles != goldenTiles {
				t.Errorf("flops/removed/tiles = %d/%d/%d, want %d/%d/%d",
					red.Flops, red.Removed, red.Tiles, goldenFlops, goldenRemoved, goldenTiles)
			}
			if got := ledger.SavedSeconds(); got != c.saved {
				t.Errorf("ledger saving = %v, want %v", got, c.saved)
			}
		})
	}
}

// The golden values, recorded from the reference implementation of the
// pass.
const (
	goldenNNZ     = 1460
	goldenFlops   = 6648
	goldenRemoved = 822
	goldenTiles   = 14

	// A fully resident store has no tile prefetch to hide.
	goldenResidentSaved  = 0.0
	goldenOutOfCoreSaved = 4.4601829658037674e-07
)

var (
	goldenResident  = costmodel.Counters{DeviceMemBytes: 88724, DeviceOps: 8108, PCIeBytes: 3855}
	goldenOutOfCore = costmodel.Counters{DeviceMemBytes: 88724, DeviceOps: 8108, PCIeBytes: 17428}
)
