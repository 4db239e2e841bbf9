package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
)

// clusterGolden is one distributed run's pinned outcome: the summed
// counters, every phase's modeled seconds, the two reduce terms of the
// scalability bound, the edge counts and the FASTA digest.
type clusterGolden struct {
	counters                  costmodel.Counters
	phases                    map[string]time.Duration
	overlapModeled, serialMod time.Duration
	candidates, accepted, red int64
	fasta                     string
}

// TestClusterChargesGolden pins the cluster's modeled charges per graph
// engine, node count and partitioning: the serialized reduce component
// (token hops, per-candidate host traffic, candidate shipping), the
// master's Compress-time edge shipping, and the contig bytes. The values
// were recorded from the per-backend reduce/compress code the engine
// seam replaced; any restructuring of Reduce or Compress must leave
// every number here unchanged.
func TestClusterChargesGolden(t *testing.T) {
	_, reads := testData(t)
	for _, tc := range []struct {
		backend string
		nodes   int
		fpart   bool
		want    clusterGolden
	}{
		{core.BackendGreedy, 1, false, goldenGreedy1},
		{core.BackendGreedy, 3, false, goldenGreedy3},
		{core.BackendGreedy, 1, true, goldenGreedy1FP},
		{core.BackendGreedy, 3, true, goldenGreedy3FP},
		{core.BackendSuccinct, 1, false, goldenSuccinct1},
		{core.BackendSuccinct, 3, false, goldenSuccinct3},
		{core.BackendSuccinct, 1, true, goldenSuccinct1FP},
		{core.BackendSuccinct, 3, true, goldenSuccinct3FP},
	} {
		name := fmt.Sprintf("%s/nodes=%d/fpart=%t", tc.backend, tc.nodes, tc.fpart)
		t.Run(name, func(t *testing.T) {
			cfg := clusterConfig(t, tc.nodes)
			cfg.GraphBackend = tc.backend
			cfg.PartitionByFingerprint = tc.fpart
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cl.Assemble(reads)
			if err != nil {
				t.Fatal(err)
			}
			fasta, err := os.ReadFile(res.ContigPath)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(fasta)
			got := clusterGolden{
				counters:       res.Counters,
				phases:         map[string]time.Duration{},
				overlapModeled: res.ReduceOverlapModeled,
				serialMod:      res.ReduceSerialModeled,
				candidates:     res.CandidateEdges,
				accepted:       res.AcceptedEdges,
				red:            res.ReducedEdges,
				fasta:          hex.EncodeToString(sum[:]),
			}
			for _, p := range res.Phases {
				got.phases[p.Name] = p.Modeled
			}
			if got.counters != tc.want.counters {
				t.Errorf("counters = %#v, want %#v", got.counters, tc.want.counters)
			}
			if fmt.Sprint(got.phases) != fmt.Sprint(tc.want.phases) {
				t.Errorf("phase modeled = %#v, want %#v", got.phases, tc.want.phases)
			}
			if got.overlapModeled != tc.want.overlapModeled || got.serialMod != tc.want.serialMod {
				t.Errorf("reduce t_o/t_g = %d/%d, want %d/%d", got.overlapModeled, got.serialMod,
					tc.want.overlapModeled, tc.want.serialMod)
			}
			if got.candidates != tc.want.candidates || got.accepted != tc.want.accepted ||
				got.red != tc.want.red {
				t.Errorf("candidate/accepted/reduced = %d/%d/%d, want %d/%d/%d",
					got.candidates, got.accepted, got.red,
					tc.want.candidates, tc.want.accepted, tc.want.red)
			}
			if got.fasta != tc.want.fasta {
				t.Errorf("FASTA sha256 = %s, want %s", got.fasta, tc.want.fasta)
			}
		})
	}
}

// The golden values, recorded from the per-backend cluster reduce and
// compress.
var (
	goldenGreedy1 = clusterGolden{
		counters:       costmodel.Counters{DiskReadBytes: 2460000, DiskWriteBytes: 2400000, NetBytes: 0, HostMemBytes: 1286144, DeviceMemBytes: 71401294, DeviceOps: 2613911, PCIeBytes: 8306855},
		phases:         map[string]time.Duration{"Compress": 739, "Map": 8912900, "Reduce": 8073343, "Shuffle": 0, "Sort": 16580290},
		overlapModeled: 7923617, serialMod: 149726,
		candidates: 5024, accepted: 936, red: 0,
		fasta: "5db09801f7f0bba16b52d43edcaf166d9957af75b44e6b233a48e2c6fa15b4e7",
	}
	goldenGreedy3 = clusterGolden{
		counters:       costmodel.Counters{DiskReadBytes: 3660000, DiskWriteBytes: 3600000, NetBytes: 807936, HostMemBytes: 1286144, DeviceMemBytes: 71399894, DeviceOps: 2613876, PCIeBytes: 8305455},
		phases:         map[string]time.Duration{"Compress": 1301, "Map": 3422553, "Reduce": 2791440, "Shuffle": 5687253, "Sort": 5526712},
		overlapModeled: 2641220, serialMod: 150220,
		candidates: 5024, accepted: 936, red: 0,
		fasta: "5db09801f7f0bba16b52d43edcaf166d9957af75b44e6b233a48e2c6fa15b4e7",
	}
	goldenGreedy1FP = clusterGolden{
		counters:       costmodel.Counters{DiskReadBytes: 3660000, DiskWriteBytes: 3600000, NetBytes: 0, HostMemBytes: 1286144, DeviceMemBytes: 71401294, DeviceOps: 2613911, PCIeBytes: 8306855},
		phases:         map[string]time.Duration{"Compress": 739, "Map": 8912900, "Reduce": 8073343, "Shuffle": 15803745, "Sort": 16580290},
		overlapModeled: 7923617, serialMod: 149726,
		candidates: 5024, accepted: 936, red: 0,
		fasta: "5db09801f7f0bba16b52d43edcaf166d9957af75b44e6b233a48e2c6fa15b4e7",
	}
	goldenGreedy3FP = clusterGolden{
		counters:       costmodel.Counters{DiskReadBytes: 6060000, DiskWriteBytes: 3600000, NetBytes: 812372, HostMemBytes: 1286144, DeviceMemBytes: 67770814, DeviceOps: 2492241, PCIeBytes: 5906115},
		phases:         map[string]time.Duration{"Compress": 1098, "Map": 3422553, "Reduce": 2805880, "Shuffle": 11563116, "Sort": 5498283},
		overlapModeled: 2654638, serialMod: 151242,
		candidates: 5024, accepted: 936, red: 0,
		fasta: "5db09801f7f0bba16b52d43edcaf166d9957af75b44e6b233a48e2c6fa15b4e7",
	}
	goldenSuccinct1 = clusterGolden{
		counters:       costmodel.Counters{DiskReadBytes: 3025760, DiskWriteBytes: 2965760, NetBytes: 0, HostMemBytes: 321536, DeviceMemBytes: 75594426, DeviceOps: 2745774, PCIeBytes: 10586413},
		phases:         map[string]time.Duration{"Compress": 1665, "Map": 8912900, "Reduce": 14426674, "Shuffle": 0, "Sort": 16580290},
		overlapModeled: 7923617, serialMod: 6503057,
		candidates: 5024, accepted: 1104, red: 3920,
		fasta: "0d8937c73285243c74a6f1ac8ee9d3c613df35ec9e0cd855a45a8db7cac667b6",
	}
	goldenSuccinct3 = clusterGolden{
		counters:       costmodel.Counters{DiskReadBytes: 4225760, DiskWriteBytes: 4165760, NetBytes: 820676, HostMemBytes: 321536, DeviceMemBytes: 75593026, DeviceOps: 2745739, PCIeBytes: 10585013},
		phases:         map[string]time.Duration{"Compress": 1665, "Map": 3422553, "Reduce": 9147028, "Shuffle": 5687253, "Sort": 5526712},
		overlapModeled: 2641220, serialMod: 6505808,
		candidates: 5024, accepted: 1104, red: 3920,
		fasta: "0d8937c73285243c74a6f1ac8ee9d3c613df35ec9e0cd855a45a8db7cac667b6",
	}
	goldenSuccinct1FP = clusterGolden{
		counters:       costmodel.Counters{DiskReadBytes: 4225760, DiskWriteBytes: 4165760, NetBytes: 0, HostMemBytes: 321536, DeviceMemBytes: 75594426, DeviceOps: 2745774, PCIeBytes: 10586413},
		phases:         map[string]time.Duration{"Compress": 1665, "Map": 8912900, "Reduce": 14426674, "Shuffle": 15803745, "Sort": 16580290},
		overlapModeled: 7923617, serialMod: 6503057,
		candidates: 5024, accepted: 1104, red: 3920,
		fasta: "0d8937c73285243c74a6f1ac8ee9d3c613df35ec9e0cd855a45a8db7cac667b6",
	}
	goldenSuccinct3FP = clusterGolden{
		counters:       costmodel.Counters{DiskReadBytes: 6625760, DiskWriteBytes: 4165760, NetBytes: 818098, HostMemBytes: 321536, DeviceMemBytes: 71963946, DeviceOps: 2624104, PCIeBytes: 8185673},
		phases:         map[string]time.Duration{"Compress": 1665, "Map": 3422553, "Reduce": 9160332, "Shuffle": 11563116, "Sort": 5498283},
		overlapModeled: 2654638, serialMod: 6505694,
		candidates: 5024, accepted: 1104, red: 3920,
		fasta: "0d8937c73285243c74a6f1ac8ee9d3c613df35ec9e0cd855a45a8db7cac667b6",
	}
)
