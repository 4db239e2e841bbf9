package core

import (
	"context"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/contig"
	"repro/internal/costmodel"
	"repro/internal/dna"
	"repro/internal/extsort"
	"repro/internal/fastq"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/kv"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/overlap"
	"repro/internal/stats"
)

// Pipeline is a single-node assembler instance.
type Pipeline struct {
	cfg     Config
	engine  Engine // the Reduce/Compress engine Config.GraphBackend selects
	dev     *gpu.Device
	meter   *costmodel.Meter
	hostMem stats.MemTracker
	// graphMem tracks the host bytes attributable to the graph
	// representation itself (builders plus sealed adjacency structures).
	// Every graph charge also lands in hostMem; this tracker is the
	// backend-comparable subset reported as PhaseStats.GraphHostPeak and
	// the graph.host_peak_bytes gauge.
	graphMem stats.MemTracker
	// graphPeakSeen is the run-level high water of per-phase graph peaks,
	// published to the gauge (graphMem's own peak resets per phase).
	graphPeakSeen int64
	// ledger accumulates modeled overlap savings from the streamed sort
	// and reduce paths; nil when Config.Streams is off (every streamed
	// call site degrades to the serial path on a nil ledger).
	ledger *costmodel.OverlapLedger

	// FaultHook, when set, fires after every stage commit (manifest
	// written, consumed inputs cleaned up). Returning an error aborts the
	// run at exactly the point a crash would, leaving the committed stages
	// resumable; the kill-and-restart tests inject crashes through it.
	FaultHook FaultHook
}

// Result reports one assembly run.
type Result struct {
	Phases      []stats.PhaseStats
	Contigs     []dna.Seq
	ContigStats contig.Stats
	ContigPath  string // FASTA output file

	NumReads          int
	DuplicatesRemoved int   // reads dropped by Config.DedupeReads
	Partitions        int   // partition count [lmin, lmax)
	PairsGenerated    int64 // map-phase tuples written
	CandidateEdges    int64 // reduce-phase fingerprint matches
	AcceptedEdges     int64 // directed edges in the final graph
	ReducedEdges      int64 // transitive edges removed (succinct backend)
	FalsePositives    int64 // verified-mismatch candidates (VerifyOverlaps)
	SortDiskPasses    int   // max disk passes over any partition

	// CachedStages lists the stages a resumed run (Config.Resume) replayed
	// from the run manifest instead of executing, in pipeline order. Empty
	// on a cold run. Cached stages contribute no PhaseStats.
	CachedStages []string

	TotalWall    time.Duration
	TotalModeled time.Duration

	// OverlapSaved is the modeled time hidden by stream overlap across the
	// run (always zero with Config.Streams off); TotalModeled already has
	// it subtracted. OverlapRatio is the fraction of streamed modeled work
	// hidden by overlap, in [0, 1).
	OverlapSaved time.Duration
	OverlapRatio float64

	// Counters is the run's final cost-meter snapshot and Modeled its
	// per-tier modeled-seconds breakdown under the configured GPU profile;
	// Modeled.Total() reconciles with TotalModeled's derivation, so report
	// printers never recompute tier shares from raw bytes.
	Counters costmodel.Counters
	Modeled  costmodel.Breakdown
}

// PhaseByName returns the stats for the named phase.
func (r *Result) PhaseByName(name PhaseName) (stats.PhaseStats, bool) {
	for _, p := range r.Phases {
		if p.Name == string(name) {
			return p, true
		}
	}
	return stats.PhaseStats{}, false
}

// New creates a pipeline with a fresh device and meter.
func New(cfg Config) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	meter := costmodel.NewMeter()
	dev := gpu.NewDevice(cfg.GPU, meter)
	if cfg.Obs != nil {
		// The single-node pipeline is pid 0 in the trace; cluster nodes
		// take pids 1..N.
		dev.SetHooks(obs.DeviceHooks(cfg.Obs, 0))
	}
	p := &Pipeline{cfg: cfg, engine: EngineFor(cfg.GraphBackend), dev: dev, meter: meter}
	if cfg.Streams {
		p.ledger = costmodel.NewOverlapLedger(cfg.Profile())
	}
	return p, nil
}

// OverlapLedger exposes the run's overlap accounting (nil when
// Config.Streams is off), for tests and diagnostics.
func (p *Pipeline) OverlapLedger() *costmodel.OverlapLedger { return p.ledger }

// track is the pipeline's stage-driver trace lane; worker lanes hang off
// it via track.Worker.
func (p *Pipeline) track() obs.Track { return obs.Track{} }

// Device exposes the simulated device (for tests and diagnostics).
func (p *Pipeline) Device() *gpu.Device { return p.dev }

// Meter exposes the cost meter.
func (p *Pipeline) Meter() *costmodel.Meter { return p.meter }

// HostMem exposes the host-memory tracker.
func (p *Pipeline) HostMem() *stats.MemTracker { return &p.hostMem }

// GraphMem exposes the graph-representation host tracker (for tests and
// diagnostics).
func (p *Pipeline) GraphMem() *stats.MemTracker { return &p.graphMem }

// graphSink is the engines' GraphMem: graph bytes count against the host
// pool and the graph tracker alike.
type graphSink struct{ p *Pipeline }

func (s graphSink) Add(n int64)     { s.p.hostMem.Add(n); s.p.graphMem.Add(n) }
func (s graphSink) Release(n int64) { s.p.hostMem.Release(n); s.p.graphMem.Release(n) }

// runPhase measures fn as one pipeline phase. Stage spans run serially on
// the driver lane, so their counter deltas sum exactly to the run's final
// meter snapshot — the invariant the trace integration test asserts.
func (p *Pipeline) runPhase(name PhaseName, res *Result, fn func() error) error {
	p.hostMem.ResetPeak()
	p.graphMem.ResetPeak()
	p.dev.MemTracker().ResetPeak()
	p.progress(string(name), ProgressStart)
	p.cfg.Obs.Log().Debug("stage start", "stage", string(name))
	span := p.cfg.Obs.Tracer().Begin(p.track(), "stage", string(name)).
		Metered(p.meter, p.cfg.Profile())
	if name == PhaseReduce || name == PhaseCompress {
		span.Arg("graph.backend", p.engine.Name())
	}
	before := p.meter.Snapshot()
	savedBefore := p.ledger.SavedSeconds()
	timer := stats.StartTimer()
	err := fn()
	span.End()
	delta := p.meter.Snapshot().Sub(before)
	// Overlap hidden by this phase's streamed work: subtracting it from
	// the additive model turns Modeled into the phase's makespan. Streamed
	// units commit their timelines before their phase returns, so the
	// ledger delta is attributable to this phase alone.
	saved := time.Duration((p.ledger.SavedSeconds() - savedBefore) * float64(time.Second))
	modeled := delta.Time(p.cfg.Profile()) - saved
	if modeled < 0 {
		modeled = 0
	}
	ps := stats.PhaseStats{
		Name:          string(name),
		Wall:          timer.Elapsed(),
		Modeled:       modeled,
		PeakHost:      p.hostMem.Peak(),
		PeakDevice:    p.dev.MemTracker().Peak(),
		DiskRead:      delta.DiskReadBytes,
		DiskWrite:     delta.DiskWriteBytes,
		NetBytes:      delta.NetBytes,
		PCIeBytes:     delta.PCIeBytes,
		DeviceOps:     delta.DeviceOps,
		GraphHostPeak: p.graphMem.Peak(),
		OverlapSaved:  saved,
	}
	if ps.GraphHostPeak > p.graphPeakSeen {
		p.graphPeakSeen = ps.GraphHostPeak
	}
	if name == PhaseReduce || name == PhaseCompress {
		p.cfg.Obs.Metrics().Gauge(fmt.Sprintf("graph.host_peak_bytes{backend=%q}",
			p.engine.Name())).Set(p.graphPeakSeen)
	}
	res.Phases = append(res.Phases, ps)
	res.TotalWall += ps.Wall
	res.TotalModeled += ps.Modeled
	if err != nil {
		p.progress(string(name), ProgressFailed)
		p.cfg.Obs.Log().Error("stage failed", "stage", string(name), "err", err)
	} else {
		p.progress(string(name), ProgressDone)
		p.cfg.Obs.Log().Info("stage done", "stage", string(name),
			"wall", ps.Wall, "modeled", ps.Modeled)
	}
	return err
}

// progress delivers one stage lifecycle event to Config.Progress, if set.
func (p *Pipeline) progress(stage, event string) {
	if p.cfg.Progress != nil {
		p.cfg.Progress(stage, event)
	}
}

// AssembleFile loads a FASTQ/FASTA file (the Load phase of Tables II/III)
// and assembles it.
func (p *Pipeline) AssembleFile(path string) (*Result, error) {
	return p.AssembleFileContext(context.Background(), path)
}

// beginRun names the trace tracks and opens the root run span; the
// returned func ends it. Called once per assembly entry point.
func (p *Pipeline) beginRun() func() {
	tr := p.cfg.Obs.Tracer()
	tr.NameProcess(0, "lasagna")
	tr.NameThread(p.track(), "stages")
	for w := 0; w < p.cfg.workers(); w++ {
		tr.NameThread(p.track().Worker(w), fmt.Sprintf("worker %d", w))
	}
	p.cfg.Obs.Log().Info("run start", "workers", p.cfg.workers(),
		"gpu", p.cfg.GPU.Name)
	span := tr.Begin(p.track(), "run", "assemble").Metered(p.meter, p.cfg.Profile())
	return span.End
}

// AssembleFileContext is AssembleFile under a cancellation context.
func (p *Pipeline) AssembleFileContext(ctx context.Context, path string) (*Result, error) {
	defer p.beginRun()()
	res := &Result{}
	var rs *dna.ReadSet
	err := p.runPhase(PhaseLoad, res, func() error {
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		rs, _, err = fastq.ReadFile(path)
		if err != nil {
			return err
		}
		p.meter.AddDiskRead(info.Size())
		return nil
	})
	if err != nil {
		return res, err
	}
	return p.assembleInto(ctx, res, rs)
}

// Assemble runs the pipeline over an in-memory read set.
func (p *Pipeline) Assemble(rs dna.ReadSource) (*Result, error) {
	return p.AssembleContext(context.Background(), rs)
}

// AssembleContext runs the pipeline under a cancellation context:
// cancelling ctx aborts the run between device batches with ctx.Err(),
// draining every worker goroutine (including allocator waiters). The
// stages committed before the cancellation remain resumable.
func (p *Pipeline) AssembleContext(ctx context.Context, rs dna.ReadSource) (*Result, error) {
	defer p.beginRun()()
	return p.assembleInto(ctx, &Result{}, rs)
}

// assembleInto drives the stage graph: Map -> Sort -> Reduce -> Compress,
// each stage consuming the previous stage's on-disk artifacts and
// committing its own (plus the run manifest) before the next begins. With
// Config.Resume, stages the manifest already covers are replayed from
// their records instead of executed; because Compress always rebuilds the
// overlap graph from the persisted edge list, a resumed run's output is
// byte-identical to a cold one.
func (p *Pipeline) assembleInto(ctx context.Context, res *Result, rs dna.ReadSource) (*Result, error) {
	defer func() {
		res.Counters = p.meter.Snapshot()
		res.Modeled = res.Counters.Breakdown(p.cfg.Profile())
		res.OverlapSaved = time.Duration(p.ledger.SavedSeconds() * float64(time.Second))
		res.OverlapRatio = p.ledger.OverlapRatio()
		if p.ledger != nil {
			m := p.cfg.Obs.Metrics()
			m.Gauge("core.overlap_saved_us").Set(res.OverlapSaved.Microseconds())
			m.Gauge("core.overlap_ratio_pct").Set(int64(res.OverlapRatio * 100))
		}
	}()
	if rs.NumReads() == 0 {
		return res, fmt.Errorf("core: empty read set")
	}
	if rs.MaxLen() <= p.cfg.MinOverlap {
		return res, fmt.Errorf("core: MinOverlap %d is not below the longest read length %d",
			p.cfg.MinOverlap, rs.MaxLen())
	}
	if concrete, ok := rs.(*dna.ReadSet); ok {
		if p.cfg.DedupeReads {
			deduped, removed := dna.Deduplicate(concrete)
			concrete = deduped
			rs = deduped
			res.DuplicatesRemoved = removed
		}
		if p.cfg.PackedReads {
			// Store bulk reads 2-bit packed, the encoding the paper's
			// host-memory budgets assume.
			rs = dna.PackSource(concrete)
		}
	} else if p.cfg.DedupeReads || p.cfg.PackedReads {
		return res, fmt.Errorf("core: DedupeReads/PackedReads need an unpacked ReadSet input")
	}
	res.NumReads = rs.NumReads()
	p.hostMem.Add(rs.ApproxBytes())
	defer p.hostMem.Release(rs.ApproxBytes())

	partDir := filepath.Join(p.cfg.Workspace, "partitions")
	edgePath := filepath.Join(p.cfg.Workspace, edgeFileName)

	runner := NewStageRunner(p.cfg.Workspace, p.cfg.fingerprint(), InputFingerprint(rs),
		p.cfg.Resume, pipelineStages)
	runner.SetObserver(p.cfg.Obs, p.track())
	runner.SetFaultHook(p.FaultHook)
	runner.SetProgress(p.cfg.Progress)
	if runner.ResumeAt() == 0 {
		// Starting from scratch: partitions left by an interrupted or
		// invalidated run must not leak into this one.
		if err := os.RemoveAll(partDir); err != nil {
			return res, err
		}
	}
	if err := os.MkdirAll(partDir, 0o755); err != nil {
		return res, err
	}
	// A crash mid-sort leaves per-sort spill directories behind; they are
	// not resume artifacts (Sort re-runs from Map's committed partitions)
	// and stale run files inside them must never feed a fresh merge.
	if err := sweepSortScratch(partDir); err != nil {
		return res, err
	}

	// Map: fingerprints + partitioning.
	var counts map[int]int64
	err := runner.Run(Stage{
		Name: PhaseMap,
		Fresh: func() (StageOutcome, error) {
			var out StageOutcome
			err := p.runPhase(PhaseMap, res, func() error {
				var err error
				counts, err = p.mapPhase(ctx, rs, partDir)
				return err
			})
			if err != nil {
				return out, err
			}
			for _, l := range SortedLengthsDesc(counts) {
				out.Artifacts = append(out.Artifacts,
					relPartitionPath(kvio.Suffix, l, false),
					relPartitionPath(kvio.Prefix, l, false))
			}
			return out, nil
		},
		Cached: func(rec StageRecord) error {
			var err error
			counts, err = partitionCountsFromRecord(rec)
			return err
		},
	})
	if err != nil {
		return res, err
	}
	res.Partitions = len(counts)
	pairHist := p.cfg.Obs.Metrics().Histogram("core.partition_pairs",
		1e2, 1e3, 1e4, 1e5, 1e6, 1e7)
	for _, n := range counts {
		res.PairsGenerated += 2 * n // n suffix + n prefix tuples per length
		pairHist.Observe(float64(2 * n))
	}
	p.cfg.Obs.Metrics().Gauge("core.partitions").Set(int64(len(counts)))

	// Sort: external sort of every partition, both kinds. The raw
	// partitions are deleted only after the stage commits, so a crash
	// mid-sort leaves the Map artifacts intact for resume.
	err = runner.Run(Stage{
		Name: PhaseSort,
		Fresh: func() (StageOutcome, error) {
			var out StageOutcome
			err := p.runPhase(PhaseSort, res, func() error {
				return p.sortPhase(ctx, partDir, counts, res)
			})
			if err != nil {
				return out, err
			}
			for _, l := range SortedLengthsDesc(counts) {
				out.Artifacts = append(out.Artifacts,
					relPartitionPath(kvio.Suffix, l, true),
					relPartitionPath(kvio.Prefix, l, true))
			}
			out.Meta = map[string]int64{metaSortDiskPasses: int64(res.SortDiskPasses)}
			out.Cleanup = func() error {
				for l := range counts {
					if err := os.Remove(kvio.PartitionPath(partDir, kvio.Suffix, l)); err != nil {
						return err
					}
					if err := os.Remove(kvio.PartitionPath(partDir, kvio.Prefix, l)); err != nil {
						return err
					}
				}
				return nil
			}
			return out, nil
		},
		Cached: func(rec StageRecord) error {
			res.SortDiskPasses = int(rec.Meta[metaSortDiskPasses])
			return nil
		},
	})
	if err != nil {
		return res, err
	}

	// Reduce: suffix-prefix matching. Both graph modes persist their
	// accepted edge list to the edge artifact; the in-memory graph is
	// rebuilt from it by Compress, on cold and resumed runs alike.
	err = runner.Run(Stage{
		Name: PhaseReduce,
		Fresh: func() (StageOutcome, error) {
			var out StageOutcome
			err := p.runPhase(PhaseReduce, res, func() error {
				return p.reducePhase(ctx, rs, partDir, counts, edgePath, res)
			})
			if err != nil {
				return out, err
			}
			out.Artifacts = []string{edgeFileName}
			out.Meta = map[string]int64{
				metaCandidateEdges: res.CandidateEdges,
				metaFalsePositives: res.FalsePositives,
				metaAcceptedEdges:  res.AcceptedEdges,
				metaReducedEdges:   res.ReducedEdges,
			}
			return out, nil
		},
		Cached: func(rec StageRecord) error {
			res.CandidateEdges = rec.Meta[metaCandidateEdges]
			res.FalsePositives = rec.Meta[metaFalsePositives]
			res.AcceptedEdges = rec.Meta[metaAcceptedEdges]
			res.ReducedEdges = rec.Meta[metaReducedEdges]
			return nil
		},
	})
	if err != nil {
		return res, err
	}

	// Compress: rebuild the graph from the edge artifact, traverse paths,
	// and generate contigs.
	err = runner.Run(Stage{
		Name: PhaseCompress,
		Fresh: func() (StageOutcome, error) {
			var out StageOutcome
			err := p.runPhase(PhaseCompress, res, func() error {
				return p.compressPhase(rs, edgePath, res)
			})
			if err != nil {
				return out, err
			}
			out.Artifacts = []string{contigFileName}
			return out, nil
		},
		Cached: func(rec StageRecord) error {
			res.ContigPath = filepath.Join(p.cfg.Workspace, contigFileName)
			contigs, err := contig.LoadFASTA(res.ContigPath)
			if err != nil {
				return err
			}
			res.Contigs = contigs
			res.ContigStats = contig.Summarize(contigs)
			return nil
		},
	})
	if err != nil {
		return res, err
	}

	res.CachedStages = runner.CachedStages()
	if !p.cfg.KeepIntermediate {
		if err := os.RemoveAll(partDir); err != nil {
			return res, err
		}
		if err := os.Remove(edgePath); err != nil && !os.IsNotExist(err) {
			return res, err
		}
	}
	return res, nil
}

// pipelineStages is the single-node stage graph, in execution order.
var pipelineStages = []PhaseName{PhaseMap, PhaseSort, PhaseReduce, PhaseCompress}

// Manifest meta keys for the counters a resumed run restores.
const (
	metaSortDiskPasses = "sortDiskPasses"
	metaCandidateEdges = "candidateEdges"
	metaFalsePositives = "falsePositives"
	metaAcceptedEdges  = "acceptedEdges"
	metaReducedEdges   = "reducedEdges"
)

// contigFileName is the Compress stage's artifact (workspace-relative).
const contigFileName = "contigs.fasta"

// relPartitionPath names a partition file relative to the workspace.
func relPartitionPath(k kvio.Kind, length int, sorted bool) string {
	name := filepath.Base(kvio.PartitionPath("", k, length))
	if sorted {
		name += ".sorted"
	}
	return path.Join("partitions", name)
}

// partitionCountsFromRecord rebuilds the per-length tuple counts from a
// committed Map record: each suffix artifact holds exactly its partition's
// pairs, so the counts fall out of the recorded sizes. Disk listings are
// never consulted — the record is authoritative even after the files were
// consumed by Sort.
func partitionCountsFromRecord(rec StageRecord) (map[int]int64, error) {
	prefix := kvio.Suffix.String() + "_"
	counts := make(map[int]int64)
	for _, a := range rec.Artifacts {
		base := path.Base(a.Path)
		if !strings.HasPrefix(base, prefix) || !strings.HasSuffix(base, ".kv") {
			continue
		}
		l, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(base, prefix), ".kv"))
		if err != nil {
			return nil, fmt.Errorf("core: manifest Map artifact %q: %w", a.Path, err)
		}
		counts[l] = a.Bytes / kv.PairBytes
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("core: manifest Map record lists no partitions")
	}
	return counts, nil
}

// mapTuple is one (length, side, fingerprint, vertex) emission from the
// map kernels, buffered before the partitioned disk write.
type mapTuple struct {
	length int32
	kind   kvio.Kind
	pair   kv.Pair
}

const mapTupleBytes = 32

func (p *Pipeline) mapPhase(ctx context.Context, rs dna.ReadSource, partDir string) (map[int]int64, error) {
	sfxW := kvio.NewPartitionWriters(partDir, kvio.Suffix, p.meter)
	pfxW := kvio.NewPartitionWriters(partDir, kvio.Prefix, p.meter)
	mapper := NewMapper(p.dev, &p.hostMem, p.cfg.MinOverlap, p.cfg.MapBatchReads, rs.MaxLen())
	mapper.NaiveKernel = p.cfg.NaiveMapKernel
	mapper.Workers = p.cfg.workers()
	mapper.Obs = p.cfg.Obs
	mapper.Track = p.track()
	mapper.Profile = p.cfg.Profile()
	if err := mapper.MapRange(ctx, rs, 0, rs.NumReads(), sfxW, pfxW); err != nil {
		return nil, err
	}
	counts := sfxW.Counts()
	if err := sfxW.Close(); err != nil {
		return nil, err
	}
	if err := pfxW.Close(); err != nil {
		return nil, err
	}
	return counts, nil
}

// sortTask names one partition file to sort.
type sortTask struct {
	length int
	kind   kvio.Kind
}

func (p *Pipeline) sortPhase(ctx context.Context, partDir string, counts map[int]int64, res *Result) error {
	var tasks []sortTask
	for _, l := range SortedLengthsDesc(counts) {
		tasks = append(tasks, sortTask{l, kvio.Suffix}, sortTask{l, kvio.Prefix})
	}
	var mu sync.Mutex // guards res.SortDiskPasses
	return RunTasks(p.cfg.workers(), len(tasks), func(worker, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		t := tasks[i]
		defer p.cfg.Obs.Tracer().Begin(p.track().Worker(worker), "partition",
			fmt.Sprintf("sort %s len=%d", t.kind, t.length)).
			Metered(p.meter, p.cfg.Profile()).End()
		// Every concurrent sort gets a private scratch directory: run and
		// merge files are named per sort, and partitions must not see each
		// other's spills.
		tmpDir := filepath.Join(partDir, fmt.Sprintf("sort_%s_%04d", t.kind, t.length))
		if err := os.MkdirAll(tmpDir, 0o755); err != nil {
			return err
		}
		defer os.RemoveAll(tmpDir)
		cfg := extsort.Config{
			Device:           p.dev,
			Meter:            p.meter,
			HostMem:          &p.hostMem,
			HostBlockPairs:   p.cfg.HostBlockPairs,
			DeviceBlockPairs: p.cfg.DeviceBlockPairs,
			TempDir:          tmpDir,
			Obs:              p.cfg.Obs,
			Overlap:          p.ledger,
		}
		in := kvio.PartitionPath(partDir, t.kind, t.length)
		out := in + ".sorted"
		st, err := extsort.SortFile(ctx, cfg, in, out)
		if err != nil {
			return fmt.Errorf("core: sorting partition %d (%s): %w", t.length, t.kind, err)
		}
		mu.Lock()
		if st.DiskPasses > res.SortDiskPasses {
			res.SortDiskPasses = st.DiskPasses
		}
		mu.Unlock()
		return nil
	})
}

// reducePhase feeds the verified candidates, in the ordered runReduce
// apply, through the configured engine and persists the surviving edges
// to edgePath in the engine's edges.kv order.
func (p *Pipeline) reducePhase(ctx context.Context, rs dna.ReadSource, partDir string,
	counts map[int]int64, edgePath string, res *Result) error {
	g, err := p.engine.Reduce(ctx, p.engineEnv(rs), func(add AddFunc) error {
		return p.runReduce(ctx, rs, partDir, counts, res, func(u, v uint32, l uint16) { add(u, v, l) })
	})
	if err != nil {
		return err
	}
	defer g.Release()
	res.AcceptedEdges = g.Accepted()
	res.ReducedEdges = g.Removed()
	_, err = writeEdgeFile(edgePath, p.meter, g.LiveEdges())
	return err
}

// engineEnv is what the pipeline's engine runs against.
func (p *Pipeline) engineEnv(rs dna.ReadSource) EngineEnv {
	return EngineEnv{
		Sort: extsort.Config{
			Device:           p.dev,
			Meter:            p.meter,
			HostMem:          &p.hostMem,
			HostBlockPairs:   p.cfg.HostBlockPairs,
			DeviceBlockPairs: p.cfg.DeviceBlockPairs,
			// The spill scratch rides the sort_* naming convention so a
			// crashed run's leftovers are swept with the other sort debris.
			TempDir: filepath.Join(p.cfg.Workspace, "partitions", "sort_succinct"),
			Obs:     p.cfg.Obs,
			Overlap: p.ledger,
		},
		GraphMem: graphSink{p},
		Reads:    rs,
		Traverse: graph.TraverseOptions{
			IncludeSingletons: p.cfg.IncludeSingletons,
			BreakCycles:       p.cfg.BreakCycles,
		},
		ParallelTraversal: p.cfg.ParallelTraversal,
	}
}

// edgeCand is one verified candidate overlap buffered between a reduce
// worker and the sequential graph builder.
type edgeCand struct{ u, v uint32 }

// edgeCandBytes is the in-memory footprint of one buffered candidate.
const edgeCandBytes = 8

// partReduction is one partition's reduce output, buffered until the
// graph builder reaches its turn in the descending-length order.
type partReduction struct {
	idx        int
	edges      []edgeCand
	candidates int64
	falsePos   int64
	err        error
}

// runReduce streams every sorted partition (descending length) through the
// overlap reducer and hands the surviving candidates to apply. Partitions
// are reduced by up to Workers goroutines concurrently — each holding its
// own device window allocation — but apply always runs on the calling
// goroutine in strict descending-length order, so graph construction is
// identical to the serial pipeline's. VerifyOverlaps filtering is a pure
// function of the read set and is performed inside the workers.
// Cancellation surfaces as an error from within a worker's job (via the
// reducer's ctx checks), preserving the one-result-per-job invariant that
// keeps the pool deadlock-free.
func (p *Pipeline) runReduce(ctx context.Context, rs dna.ReadSource, partDir string,
	counts map[int]int64, res *Result, apply func(u, v uint32, l uint16)) error {
	cfg := overlap.Config{
		Device:      p.dev,
		Meter:       p.meter,
		HostMem:     &p.hostMem,
		WindowPairs: max(p.cfg.HostBlockPairs/2, 1),
		Obs:         p.cfg.Obs,
		Overlap:     p.ledger,
	}
	lengths := SortedLengthsDesc(counts)
	lenHist := p.cfg.Obs.Metrics().Histogram("overlap.length",
		64, 96, 128, 192, 256, 512, 1024)
	reduceOne := func(worker, l int) partReduction {
		defer p.cfg.Obs.Tracer().Begin(p.track().Worker(worker), "partition",
			fmt.Sprintf("reduce len=%d", l)).
			Metered(p.meter, p.cfg.Profile()).End()
		sfx := kvio.PartitionPath(partDir, kvio.Suffix, l) + ".sorted"
		pfx := kvio.PartitionPath(partDir, kvio.Prefix, l) + ".sorted"
		var out partReduction
		err := overlap.ReducePaths(ctx, cfg, sfx, pfx, func(u, v uint32) error {
			out.candidates++
			if p.cfg.VerifyOverlaps && !p.verifyOverlap(rs, u, v, l) {
				out.falsePos++
				return nil
			}
			out.edges = append(out.edges, edgeCand{u, v})
			return nil
		})
		if err != nil {
			out.err = fmt.Errorf("core: reducing partition %d: %w", l, err)
		}
		return out
	}
	applyOne := func(l int, r partReduction) {
		res.CandidateEdges += r.candidates
		res.FalsePositives += r.falsePos
		for _, e := range r.edges {
			lenHist.Observe(float64(l))
			apply(e.u, e.v, uint16(l))
		}
	}

	workers := min(p.cfg.workers(), len(lengths))
	if workers <= 1 {
		for _, l := range lengths {
			r := reduceOne(0, l)
			if r.err != nil {
				return r.err
			}
			applyOne(l, r)
		}
		return nil
	}

	jobs := make(chan int)
	results := make(chan partReduction, workers)
	abort := make(chan struct{})
	var wg sync.WaitGroup
	p.cfg.Obs.Log().Debug("reduce worker pool start", "workers", workers,
		"partitions", len(lengths))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for idx := range jobs {
				r := reduceOne(w, lengths[idx])
				r.idx = idx
				p.hostMem.Add(int64(len(r.edges)) * edgeCandBytes)
				select {
				case results <- r:
				case <-abort:
					p.hostMem.Release(int64(len(r.edges)) * edgeCandBytes)
					return
				}
			}
		}(w)
	}
	go func() {
		defer close(jobs)
		for i := range lengths {
			select {
			case jobs <- i:
			case <-abort:
				return
			}
		}
	}()

	pending := make(map[int]partReduction)
	var firstErr error
	next, received := 0, 0
	for received < len(lengths) && firstErr == nil {
		r := <-results
		received++
		if r.err != nil {
			p.hostMem.Release(int64(len(r.edges)) * edgeCandBytes)
			firstErr = r.err
			break
		}
		pending[r.idx] = r
		for {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			applyOne(lengths[next], cur)
			p.hostMem.Release(int64(len(cur.edges)) * edgeCandBytes)
			next++
		}
	}
	close(abort)
	wg.Wait()
	close(results)
	for r := range results {
		p.hostMem.Release(int64(len(r.edges)) * edgeCandBytes)
	}
	for _, r := range pending {
		p.hostMem.Release(int64(len(r.edges)) * edgeCandBytes)
	}
	p.cfg.Obs.Log().Debug("reduce worker pool drained", "err", firstErr)
	return firstErr
}

// sweepSortScratch removes the per-sort spill directories (sort_<kind>_<len>)
// a crashed or cancelled run left under the partition directory. Sorted
// partition files and raw partitions are untouched — only the private
// scratch that sortPhase would normally remove on its way out.
func sweepSortScratch(partDir string) error {
	ents, err := os.ReadDir(partDir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), "sort_") {
			if err := os.RemoveAll(filepath.Join(partDir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// SortedLengthsDesc returns the partition lengths in descending order,
// the deterministic schedule of the sort and reduce phases here and on
// every cluster node.
func SortedLengthsDesc(counts map[int]int64) []int {
	lengths := make([]int, 0, len(counts))
	for l := range counts {
		lengths = append(lengths, l)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lengths)))
	return lengths
}

// RunTasks runs n independent tasks on up to workers goroutines
// (workers <= 1 runs them inline) and returns the first error. Remaining
// tasks are skipped after an error. Each task receives the index of the
// worker running it, so callers can attribute work to per-worker trace
// lanes.
func RunTasks(workers, n int, task func(worker, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := task(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	jobs := make(chan int)
	errs := make(chan error, workers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				if failed.Load() {
					continue
				}
				if err := task(w, i); err != nil {
					failed.Store(true)
					select {
					case errs <- err:
					default:
					}
				}
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	close(errs)
	return <-errs
}

// verifyOverlap checks that the l-suffix of vertex u equals the l-prefix
// of vertex v by comparing the underlying sequences.
func (p *Pipeline) verifyOverlap(rs dna.ReadSource, u, v uint32, l int) bool {
	su := rs.VertexSeq(u)
	sv := rs.VertexSeq(v)
	if l > len(su) || l > len(sv) {
		return false
	}
	return su[len(su)-l:].Equal(sv[:l])
}

// compressPhase rebuilds the engine's graph from the persisted edge
// list, extracts paths, and generates contigs. Loading from disk rather
// than reusing Reduce's in-memory graph is deliberate: it is the single
// code path shared by cold and resumed runs, so resumed output is
// byte-identical by construction.
func (p *Pipeline) compressPhase(rs dna.ReadSource, edgePath string, res *Result) error {
	it, err := newEdgeFileIterator(edgePath, p.meter)
	if err != nil {
		return err
	}
	g, err := p.engine.Load(p.engineEnv(rs), it.Next)
	if cerr := it.Close(); err == nil && cerr != nil {
		g.Release()
		err = cerr
	}
	if err != nil {
		return err
	}
	defer g.Release()
	res.Contigs = contig.Generate(contig.Config{Device: p.dev}, g.Paths(), rs)
	res.ContigStats = contig.Summarize(res.Contigs)
	res.ContigPath = filepath.Join(p.cfg.Workspace, contigFileName)
	written, err := contig.WriteFASTA(res.ContigPath, res.Contigs)
	if err != nil {
		return err
	}
	p.meter.AddDiskWrite(written)
	return nil
}
