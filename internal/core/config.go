// Package core orchestrates the single-node LaSAGNA pipeline (Fig. 4):
// map (fingerprint generation + partitioning), sort (hybrid external
// sort), reduce (suffix-prefix matching + greedy graph), and compress
// (path traversal + contig generation).
//
// The pipeline owns a simulated GPU device, a host-memory tracker, and a
// cost meter; every phase reports wall time, modeled time under the
// configured hardware profile, peak host and device memory, and disk
// traffic — the measurements behind Tables II-V of the paper.
package core

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/costmodel"
	"repro/internal/gpu"
	"repro/internal/kv"
	"repro/internal/obs"
)

// Config parameterizes an assembly run.
type Config struct {
	// Workspace is the scratch directory for partition files, sort runs,
	// and outputs. It must exist.
	Workspace string
	// Workers bounds the pipeline's partition-level concurrency: map
	// batches in flight, partitions sorted at once, and partitions reduced
	// at once. Each in-flight unit holds its own device batch allocation,
	// so device-memory capacity still bounds effective concurrency
	// whatever the setting. 0 means runtime.GOMAXPROCS(0); 1 reproduces
	// the serial pipeline exactly. Output and modeled cost are byte-
	// identical for every value (see DESIGN.md, "Concurrency model").
	Workers int
	// MinOverlap is l_min: candidate overlaps shorter than this are
	// discarded during partitioning.
	MinOverlap int
	// HostBlockPairs is m_h, the number of key-value pairs sorted per
	// host-memory block; it controls the number of disk passes.
	HostBlockPairs int
	// DeviceBlockPairs is m_d, the number of pairs per device chunk; it
	// controls the number of device merge passes.
	DeviceBlockPairs int
	// MapBatchReads is the number of reads shipped to the device per map
	// kernel launch.
	MapBatchReads int
	// GPU selects the modeled card.
	GPU gpu.Spec
	// DiskReadBps/DiskWriteBps set the modeled disk bandwidth.
	DiskReadBps  float64
	DiskWriteBps float64
	// IncludeSingletons emits single-read contigs for reads that joined
	// no path.
	IncludeSingletons bool
	// BreakCycles walks residual cycles during traversal.
	BreakCycles bool
	// KeepIntermediate retains partition and sorted files after the run.
	KeepIntermediate bool
	// Resume re-enters an interrupted run mid-pipeline: when the workspace
	// holds a run manifest whose config fingerprint, input hash, and
	// resume-point artifacts all validate, the committed stages are
	// skipped and their counters replayed from the manifest. Output is
	// byte-identical to a cold run. Any mismatch — changed configuration,
	// different reads, corrupted or missing artifacts — falls back to a
	// full re-run; stale state is never trusted. See DESIGN.md, "Stage
	// graph and resume".
	Resume bool
	// GraphBackend selects the engine behind the Reduce and Compress
	// stages. "" or BackendGreedy is the paper's pipeline: the greedy
	// bit-vector graph. BackendSuccinct builds the full string graph of
	// Section II-A.2 instead: every candidate overlap becomes an edge of a
	// delta-compressed adjacency store built streaming off the sorted
	// candidate runs, a masked two-hop pass removes transitive edges, and
	// contigs are spelled from unitig chains (see DESIGN.md, "Succinct
	// overlap-graph store"). Output-relevant: part of the resume
	// fingerprint. Resolve values with ResolveBackend.
	GraphBackend string
	// ParallelTraversal extracts paths with the BSP pointer-jumping
	// traversal (the paper's future-work parallel graph processing)
	// instead of the sequential walk. Outputs are identical on shotgun
	// data; residual cycles are skipped rather than broken.
	ParallelTraversal bool
	// PackedReads stores the bulk reads 2-bit packed (a quarter of the
	// byte-per-base footprint), matching the encoding the paper's
	// host-memory accounting assumes; reads are unpacked per access.
	PackedReads bool
	// DedupeReads removes duplicate reads (including reverse-complement
	// duplicates) before assembly. The paper does not deduplicate, but
	// high-coverage data forms greedy 2-cycles between duplicate reads
	// that fragment contigs; see dna.Deduplicate.
	DedupeReads bool
	// Streams enables overlapped execution modeling: the sort and reduce
	// phases run their disk prefetch and device work on gpu.Streams backed
	// by per-unit costmodel Timelines, and each phase's modeled time
	// becomes the overlap-aware makespan instead of the additive tier sum.
	// Output bytes and all cost counters are identical either way — only
	// modeled seconds change, and only downward (see DESIGN.md, "Streams
	// and overlap accounting"). Execution knob: excluded from the resume
	// fingerprint.
	Streams bool
	// NaiveMapKernel switches the map phase to the per-read-thread
	// fingerprint kernel the paper rejects (Section III-A); exposed for
	// the ablation benchmarks.
	NaiveMapKernel bool
	// VerifyOverlaps cross-checks every candidate edge against the actual
	// read sequences before inserting it, turning fingerprint false
	// positives into hard errors. The paper reports zero false positives
	// with 128-bit fingerprints; this switch proves it per run.
	VerifyOverlaps bool
	// Obs is the observability sink: span tracing, structured logging,
	// and the metrics registry. Nil (the default) disables all
	// instrumentation; runs are byte-identical either way. Like the other
	// execution knobs it is excluded from the resume fingerprint.
	Obs *obs.Observer
	// Progress, when set, receives one callback per stage lifecycle
	// transition: ProgressStart/ProgressDone/ProgressFailed around fresh
	// execution and ProgressCached when a resumed run replays the stage
	// from the manifest. Callbacks run on the stage-driver goroutine, so
	// implementations must be fast and must not call back into the
	// pipeline. The serve layer uses it to publish per-job progress over
	// HTTP. Execution knob: excluded from the resume fingerprint.
	Progress func(stage string, event string)
}

// The Config.GraphBackend values.
const (
	// BackendGreedy is the paper's reduce/compress engine (also the
	// resolution of the empty string).
	BackendGreedy = "greedy"
	// BackendSuccinct is the compressed-store engine: the string graph's
	// adjacency held as delta-compressed byte streams indexed by
	// Elias–Fano offsets, constructed in a single streaming pass off the
	// sorted candidate runs (the full edge list never materializes in
	// host memory), a masked two-hop transitive reduction, and unitig
	// compression (see internal/succinct).
	BackendSuccinct = "succinct"
)

// Backends lists the valid GraphBackend values, for CLI/API validation.
var Backends = []string{BackendGreedy, BackendSuccinct}

// ResolveBackend maps a GraphBackend value to the engine it selects: the
// empty string means greedy. Any other value outside Backends is an
// error naming the valid engines; the removed "spmat" engine gets its
// own message pointing at succinct, which replaced it with
// byte-identical output.
func ResolveBackend(name string) (string, error) {
	switch name {
	case "":
		return BackendGreedy, nil
	case BackendGreedy, BackendSuccinct:
		return name, nil
	case "spmat":
		return "", fmt.Errorf("graph backend %q was removed: use %q, which produces the same contigs",
			name, BackendSuccinct)
	}
	return "", fmt.Errorf("unknown graph backend %q (want %q or %q)", name, BackendGreedy, BackendSuccinct)
}

// Progress events delivered to Config.Progress.
const (
	ProgressStart  = "start"
	ProgressDone   = "done"
	ProgressFailed = "failed"
	ProgressCached = "cached"
)

// DefaultConfig returns a configuration sized for the scaled reproduction
// datasets: a K40-class device profile with block sizes that exercise the
// two-level streaming model without fitting everything in one pass.
func DefaultConfig(workspace string) Config {
	return Config{
		Workspace:         workspace,
		Workers:           runtime.GOMAXPROCS(0),
		MinOverlap:        63,
		HostBlockPairs:    1 << 20,
		DeviceBlockPairs:  1 << 16,
		MapBatchReads:     4096,
		GPU:               gpu.K40,
		DiskReadBps:       costmodel.DefaultDisk.ReadBps,
		DiskWriteBps:      costmodel.DefaultDisk.WriteBps,
		IncludeSingletons: false,
		BreakCycles:       true,
		Streams:           true,
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.Workspace == "" {
		return fmt.Errorf("core: empty workspace")
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers must be >= 0, got %d", c.Workers)
	}
	if c.MinOverlap < 1 {
		return fmt.Errorf("core: MinOverlap must be >= 1, got %d", c.MinOverlap)
	}
	if c.HostBlockPairs <= 0 || c.DeviceBlockPairs <= 0 {
		return fmt.Errorf("core: block sizes must be positive")
	}
	if c.DeviceBlockPairs > c.HostBlockPairs {
		return fmt.Errorf("core: device block (%d) exceeds host block (%d)",
			c.DeviceBlockPairs, c.HostBlockPairs)
	}
	if c.MapBatchReads <= 0 {
		return fmt.Errorf("core: MapBatchReads must be positive")
	}
	if need := int64(2*c.DeviceBlockPairs) * kv.PairBytes; need > c.GPU.MemBytes {
		return fmt.Errorf("core: device block needs %d bytes, %s has %d",
			need, c.GPU.Name, c.GPU.MemBytes)
	}
	if _, err := ResolveBackend(c.GraphBackend); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Profile returns the cost-model profile for the configured hardware.
func (c Config) Profile() costmodel.Profile {
	return c.GPU.CostProfile(c.DiskReadBps, c.DiskWriteBps)
}

// workers resolves the Workers knob: 0 means one worker per CPU.
func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// DeviceDemandBytes returns an upper bound on the device memory this
// configuration can hold concurrently while assembling reads of at most
// maxReadLen bases. Each pipeline worker holds at most one batch
// allocation at a time (the AllocWait contract), so the bound is
// workers x the largest single-batch claim any stage makes:
//
//   - Map: the read batch on both strands plus the per-block scan
//     buffers (see Mapper.mapBatch),
//   - Sort: the radix double-buffer and the two-level merge windows
//     (see extsort.sortHostBlock / mergeFiles),
//   - Reduce: a suffix+prefix window pair plus the three bound/count
//     vectors (see overlap.ReducePaths).
//
// The serve scheduler leases exactly this many bytes from the shared
// device before admitting a job, which is what makes multi-tenant
// packing safe: the sum of admitted leases can never exceed the card.
func (c Config) DeviceDemandBytes(maxReadLen int) int64 {
	l := int64(maxReadLen)
	mapBytes := 2*int64(c.MapBatchReads)*l + 64*int64(runtime.GOMAXPROCS(0))*l
	sortBytes := 4 * int64(c.DeviceBlockPairs) * kv.PairBytes
	window := int64(max(c.HostBlockPairs/2, 1))
	reduceBytes := 2*window*kv.PairBytes + 12*window
	return int64(c.workers()) * max(mapBytes, sortBytes, reduceBytes)
}

// PhaseName identifies a pipeline phase in results.
type PhaseName string

// The pipeline phases, in execution order, matching the row labels of
// Tables II and III.
const (
	PhaseLoad     PhaseName = "Load"
	PhaseMap      PhaseName = "Map"
	PhaseSort     PhaseName = "Sort"
	PhaseReduce   PhaseName = "Reduce"
	PhaseCompress PhaseName = "Compress"
)

// Durations keyed by phase, used by results and the bench harness.
type PhaseTimes map[PhaseName]time.Duration
