// Package cluster implements the distributed LaSAGNA of Section III-E:
// multiple nodes, each with private scratch storage and its own simulated
// GPU, cooperating through master-assigned input blocks, an all-to-all
// shuffle of length partitions, and a reduce phase serialized by passing
// the out-degree bit-vector from the node owning partition l+1 to the
// node owning partition l. The simulation feeds every node's candidates,
// in that order, to one core.Engine on the master and charges the token
// hops and shipping the engine declares.
//
// Nodes are simulated in-process: each runs its phase work in its own
// goroutine against its own storage directory, device, and cost meter.
// The original system's GASNet active messages become direct metered
// reads of the peer's partition file (the paper's message handler does
// exactly that: read the requested partition, respond with a chunk), with
// cross-node bytes charged to the network. Per-phase modeled time is the
// maximum over nodes for the parallel phases, plus the serialized
// graph-building and token-forwarding component in the reduce phase —
// reproducing the paper's t_o*p/n + t_g*p scalability bound.
package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/contig"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dna"
	"repro/internal/extsort"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/kv"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/overlap"
	"repro/internal/stats"
)

// Config parameterizes a cluster run. Block sizes have the same meaning
// as in core.Config but apply per node.
type Config struct {
	Nodes            int
	Workspace        string
	MinOverlap       int
	HostBlockPairs   int
	DeviceBlockPairs int
	MapBatchReads    int
	// InputBlockReads is the size of the input blocks the master hands
	// out during the map phase.
	InputBlockReads int
	// WorkersPerNode bounds each node's partition-level concurrency (map
	// batches in flight, partitions sorted/reduced at once), on top of the
	// node-level parallelism the cluster already provides. 0 or 1 keeps
	// each node serial; each in-flight unit holds its own allocation on
	// the node's device, so per-node device capacity still bounds it.
	// Output is identical for every value.
	WorkersPerNode int
	GPU            gpu.Spec
	// Fleet, when set, supplies the nodes' devices instead of fresh
	// per-node cards: node i runs on Fleet.Device(i) and meters on that
	// device's meter, so a serving layer that leased fleet devices to a
	// sharded job sees the job's device traffic on the cards it placed it
	// on. Requires Fleet.Size() >= Nodes. GPU must still describe the
	// per-node card for cost modeling and manifest fingerprints; callers
	// hand the cluster a fleet whose devices match it.
	Fleet        *gpu.Fleet
	DiskReadBps  float64
	DiskWriteBps float64
	NetBps       float64
	// PartitionByFingerprint switches the shuffle from length-based to
	// fingerprint-range-based ownership (the paper's future work,
	// Section IV-D): every node reduces a slice of every partition, so
	// the reduce parallelism no longer caps at the number of length
	// partitions, at the cost of a finer-grained shuffle.
	PartitionByFingerprint bool
	IncludeSingletons      bool
	BreakCycles            bool
	// GraphBackend selects the reduce/compress engine, mirroring
	// core.Config.GraphBackend. Both engines run through the one
	// core.Engine seam: every node's candidates feed the engine on the
	// master in descending length, serialized as by the bit-vector token,
	// and the engine's core.ClusterCharges price the token hops and the
	// shipping. Greedy output matches a single-node greedy run, and the
	// string graph's sorted spill makes its store independent of the
	// arrival order, so succinct output matches a single-node succinct
	// run byte for byte. Output-relevant: part of the per-node manifest
	// fingerprints.
	GraphBackend string
	// Resume re-enters an interrupted run from the nodes' private storage
	// directories, mirroring core.Config.Resume: each node keeps a run
	// manifest in its own dir, and a per-node stage (Map, Shuffle, Sort)
	// is skipped only when every node committed and can still validate it
	// (lockstep resume — the cluster never runs with nodes in inconsistent
	// stages). Reduce and compress always re-run: their state is the
	// cross-node token and in-memory candidate lists, which the paper's
	// design never checkpoints.
	Resume bool
	// Streams enables overlapped execution modeling on every node,
	// mirroring core.Config.Streams: per-node sort and reduce work runs on
	// gpu.Streams and each node's modeled phase time becomes the
	// overlap-aware makespan before the max-over-nodes aggregation.
	// Output and counters are identical either way. Execution knob:
	// excluded from the per-node manifest fingerprints.
	Streams bool
	// Obs is the observability sink shared by the coordinator and every
	// node. In the trace the coordinator is pid 0 and node i is pid i+1.
	// Nil disables all instrumentation.
	Obs *obs.Observer
}

// DefaultConfig mirrors core.DefaultConfig for an n-node SuperMic-style
// cluster (K20X nodes on 56 Gb/s InfiniBand).
func DefaultConfig(workspace string, nodes int) Config {
	return Config{
		Nodes:            nodes,
		Workspace:        workspace,
		MinOverlap:       63,
		HostBlockPairs:   1 << 20,
		DeviceBlockPairs: 1 << 16,
		MapBatchReads:    4096,
		InputBlockReads:  2048,
		GPU:              gpu.K20X,
		DiskReadBps:      costmodel.DefaultDisk.ReadBps,
		DiskWriteBps:     costmodel.DefaultDisk.WriteBps,
		NetBps:           costmodel.InfiniBand56G,
		BreakCycles:      true,
		Streams:          true,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("cluster: need at least one node, got %d", c.Nodes)
	}
	if c.Workspace == "" {
		return fmt.Errorf("cluster: empty workspace")
	}
	if c.InputBlockReads <= 0 {
		return fmt.Errorf("cluster: InputBlockReads must be positive")
	}
	if c.WorkersPerNode < 0 {
		return fmt.Errorf("cluster: WorkersPerNode must be >= 0, got %d", c.WorkersPerNode)
	}
	if c.Fleet != nil && c.Fleet.Size() < c.Nodes {
		return fmt.Errorf("cluster: %d nodes need %d fleet devices, fleet has %d",
			c.Nodes, c.Nodes, c.Fleet.Size())
	}
	single := core.Config{
		Workspace:        c.Workspace,
		MinOverlap:       c.MinOverlap,
		HostBlockPairs:   c.HostBlockPairs,
		DeviceBlockPairs: c.DeviceBlockPairs,
		MapBatchReads:    c.MapBatchReads,
		GPU:              c.GPU,
		GraphBackend:     c.GraphBackend,
	}
	return single.Validate()
}

func (c Config) profile() costmodel.Profile {
	p := c.GPU.CostProfile(c.DiskReadBps, c.DiskWriteBps)
	p.NetBps = c.NetBps
	return p
}

// PhaseShuffle is the cluster-only phase between map and sort: the
// all-to-all aggregation of partitions onto their owners.
const PhaseShuffle core.PhaseName = "Shuffle"

// node is one simulated compute node.
type node struct {
	id      int
	dir     string
	dev     *gpu.Device
	meter   *costmodel.Meter
	hostMem stats.MemTracker
	counts  map[int]int64 // owned-partition tuple counts after shuffle
	// ledger accumulates the node's modeled overlap savings; nil when
	// Config.Streams is off.
	ledger *costmodel.OverlapLedger
}

// Cluster is a simulated multi-node deployment.
type Cluster struct {
	cfg    Config
	engine core.Engine // the Reduce/Compress engine GraphBackend selects
	nodes  []*node
	// serial meters the reduce phase's serialized component: feeding the
	// candidates to the engine, token hops, and candidate shipping.
	serial *costmodel.Meter

	// FaultHook, when set, fires after a node commits a stage to its
	// manifest, mirroring core.Pipeline.FaultHook. Returning an error
	// aborts the run as a node crash at that point would; the node-restart
	// tests inject crashes through it.
	FaultHook func(nodeID int, stage core.PhaseName) error
}

// Result reports a distributed assembly.
type Result struct {
	Phases      []stats.PhaseStats
	NodeModeled map[core.PhaseName][]time.Duration // per-node modeled time per phase
	Contigs     []dna.Seq
	ContigStats contig.Stats
	ContigPath  string

	NumReads       int
	CandidateEdges int64
	AcceptedEdges  int64
	// ReducedEdges counts the transitive edges removed by the succinct
	// backend's masked two-hop pass; zero under the greedy backend, which
	// never materializes transitive edges.
	ReducedEdges int64
	TotalWall    time.Duration
	TotalModeled time.Duration

	// Counters sums every node meter plus the serialized-reduce meter at
	// the end of the run; Modeled is its per-tier breakdown under the
	// cluster's GPU profile. Note TotalModeled is a max-over-nodes per
	// phase, so Modeled.Total() (aggregate work) exceeds it whenever the
	// cluster ran in parallel.
	Counters costmodel.Counters
	Modeled  costmodel.Breakdown

	// CachedStages lists the per-node stages a resumed run (Config.Resume)
	// replayed from the node manifests instead of executing, in pipeline
	// order. Lockstep resume keeps it identical across nodes.
	CachedStages []string

	// ReduceOverlapModeled (t_o) is the slowest node's modeled time for
	// the parallel overlap-finding part of the reduce phase, and
	// ReduceSerialModeled (t_g) is the serialized graph-building and
	// token-forwarding component — the two terms of the paper's
	// t_o*p/n + t_g*p scalability bound (Section III-E.3). Their ratio
	// bounds useful cluster size at n_max = t_o/t_g.
	ReduceOverlapModeled time.Duration
	ReduceSerialModeled  time.Duration
}

// PhaseByName returns the stats for the named phase.
func (r *Result) PhaseByName(name core.PhaseName) (stats.PhaseStats, bool) {
	for _, p := range r.Phases {
		if p.Name == string(name) {
			return p, true
		}
	}
	return stats.PhaseStats{}, false
}

// New creates the cluster and its per-node scratch directories.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, engine: core.EngineFor(cfg.GraphBackend), serial: costmodel.NewMeter()}
	cfg.Obs.Tracer().NameProcess(0, "coordinator")
	for i := 0; i < cfg.Nodes; i++ {
		dir := filepath.Join(cfg.Workspace, fmt.Sprintf("node%02d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var dev *gpu.Device
		var meter *costmodel.Meter
		if cfg.Fleet != nil {
			dev = cfg.Fleet.Device(i)
			meter = dev.Meter()
		} else {
			meter = costmodel.NewMeter()
			dev = gpu.NewDevice(cfg.GPU, meter)
		}
		if cfg.Obs != nil {
			dev.SetHooks(obs.DeviceHooks(cfg.Obs, int64(i)+1))
			tr := cfg.Obs.Tracer()
			tr.NameProcess(int64(i)+1, fmt.Sprintf("node%02d", i))
			tr.NameThread(nodeTrack(i), "stages")
			for w := 0; w < cfg.WorkersPerNode; w++ {
				tr.NameThread(nodeTrack(i).Worker(w), fmt.Sprintf("worker %d", w))
			}
		}
		n := &node{
			id:    i,
			dir:   dir,
			dev:   dev,
			meter: meter,
		}
		if cfg.Streams {
			n.ledger = costmodel.NewOverlapLedger(cfg.profile())
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// track returns node n's stage lane in the trace (the coordinator owns
// pid 0, so node i maps to pid i+1).
func nodeTrack(id int) obs.Track { return obs.Track{Pid: int64(id) + 1} }

// owner returns the node that owns partition l (round-robin by length,
// Section III-E.2).
func (c *Cluster) owner(l int) *node {
	return c.nodes[(l-c.cfg.MinOverlap)%len(c.nodes)]
}

// runPhase executes fn(node) on every node concurrently and records the
// phase: wall time is real, modeled time is the slowest node plus the
// extra serialized seconds, and memory peaks are per-phase maxima.
func (c *Cluster) runPhase(name core.PhaseName, res *Result, extraSerial time.Duration,
	fn func(*node) error) error {
	type snap struct {
		counters costmodel.Counters
		saved    float64
	}
	before := make([]snap, len(c.nodes))
	for i, n := range c.nodes {
		n.hostMem.ResetPeak()
		n.dev.MemTracker().ResetPeak()
		before[i] = snap{n.meter.Snapshot(), n.ledger.SavedSeconds()}
	}
	c.cfg.Obs.Log().Debug("phase start", "phase", string(name), "nodes", len(c.nodes))
	phaseSpan := c.cfg.Obs.Tracer().Begin(obs.Track{}, "stage", string(name))
	timer := stats.StartTimer()
	errs := make([]error, len(c.nodes))
	walls := make([]time.Duration, len(c.nodes))
	starts := make([]time.Time, len(c.nodes))
	var wg sync.WaitGroup
	for i, n := range c.nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			starts[i] = time.Now()
			errs[i] = fn(n)
			walls[i] = time.Since(starts[i])
		}(i, n)
	}
	wg.Wait()
	prof := c.cfg.profile()
	ps := stats.PhaseStats{Name: string(name), Wall: timer.Elapsed()}
	modeled := make([]time.Duration, len(c.nodes))
	for i, n := range c.nodes {
		delta := n.meter.Snapshot().Sub(before[i].counters)
		// Per-node overlap hidden this phase: each node's modeled time is
		// its own makespan before the max-over-nodes aggregation.
		saved := time.Duration((n.ledger.SavedSeconds() - before[i].saved) * float64(time.Second))
		modeled[i] = delta.Time(prof) - saved
		if modeled[i] < 0 {
			modeled[i] = 0
		}
		ps.OverlapSaved += saved
		if modeled[i] > ps.Modeled {
			ps.Modeled = modeled[i]
		}
		if p := n.hostMem.Peak(); p > ps.PeakHost {
			ps.PeakHost = p
		}
		if p := n.dev.MemTracker().Peak(); p > ps.PeakDevice {
			ps.PeakDevice = p
		}
		ps.DiskRead += delta.DiskReadBytes
		ps.DiskWrite += delta.DiskWriteBytes
		ps.NetBytes += delta.NetBytes
		ps.PCIeBytes += delta.PCIeBytes
		ps.DeviceOps += delta.DeviceOps
		c.cfg.Obs.Tracer().Complete(nodeTrack(n.id), "stage", string(name),
			starts[i], walls[i], map[string]any{
				"counters": delta, "modeled": delta.Breakdown(prof),
			})
		c.cfg.Obs.Log().Debug("node phase done", "phase", string(name),
			"node", n.id, "wall", walls[i], "modeled", modeled[i], "err", errs[i])
	}
	phaseSpan.End()
	ps.Modeled += extraSerial
	if res.NodeModeled == nil {
		res.NodeModeled = map[core.PhaseName][]time.Duration{}
	}
	res.NodeModeled[name] = modeled
	res.Phases = append(res.Phases, ps)
	res.TotalWall += ps.Wall
	res.TotalModeled += ps.Modeled
	for _, err := range errs {
		if err != nil {
			c.cfg.Obs.Log().Error("phase failed", "phase", string(name), "err", err)
			return err
		}
	}
	c.cfg.Obs.Log().Info("phase done", "phase", string(name),
		"wall", ps.Wall, "modeled", ps.Modeled)
	return nil
}

// nodeStages is the per-node stage graph covered by each node's run
// manifest, in execution order. Reduce and compress are not checkpointed
// (their state is cross-node and in-memory).
var nodeStages = []core.PhaseName{core.PhaseMap, PhaseShuffle, core.PhaseSort}

// fingerprint hashes the output-relevant cluster configuration for the
// per-node manifests; execution knobs (WorkersPerNode, Workspace,
// bandwidths, Resume, Streams) are excluded. The node count and identity are
// folded in because both change what any single node's storage holds.
func (c Config) fingerprint(nodeID int) string {
	h := sha256.New()
	fmt.Fprintf(h, "cluster|nodes=%d|node=%d|min=%d|mh=%d|md=%d|mb=%d|blk=%d|gpu=%s/%d",
		c.Nodes, nodeID, c.MinOverlap, c.HostBlockPairs, c.DeviceBlockPairs,
		c.MapBatchReads, c.InputBlockReads, c.GPU.Name, c.GPU.MemBytes)
	fmt.Fprintf(h, "|fpart=%t|sing=%t|cyc=%t",
		c.PartitionByFingerprint, c.IncludeSingletons, c.BreakCycles)
	// The resolved backend, matching core.Config.fingerprint: "" and
	// "greedy" must fingerprint identically.
	fmt.Fprintf(h, "|backend=%s", core.EngineFor(c.GraphBackend).Name())
	return hex.EncodeToString(h.Sum(nil))
}

// Assemble runs the distributed pipeline over the read set, which plays
// the role of the shared distributed file system holding the input.
func (c *Cluster) Assemble(rs *dna.ReadSet) (*Result, error) {
	return c.AssembleContext(context.Background(), rs)
}

// AssembleContext is Assemble under a cancellation context: cancelling
// ctx aborts every node's phase work between device batches with
// ctx.Err(), draining all node goroutines.
func (c *Cluster) AssembleContext(ctx context.Context, rs *dna.ReadSet) (*Result, error) {
	res := &Result{NumReads: rs.NumReads()}
	defer func() {
		var total costmodel.Counters
		for _, n := range c.nodes {
			total = total.Add(n.meter.Snapshot())
		}
		res.Counters = total.Add(c.serial.Snapshot())
		res.Modeled = res.Counters.Breakdown(c.cfg.profile())
	}()
	if rs.NumReads() == 0 {
		return res, fmt.Errorf("cluster: empty read set")
	}
	if rs.MaxLen() <= c.cfg.MinOverlap {
		return res, fmt.Errorf("cluster: MinOverlap %d is not below the longest read length %d",
			c.cfg.MinOverlap, rs.MaxLen())
	}
	c.cfg.Obs.Log().Info("cluster run start", "nodes", len(c.nodes),
		"reads", rs.NumReads(), "gpu", c.cfg.GPU.Name)
	defer c.cfg.Obs.Tracer().Begin(obs.Track{}, "run", "cluster assemble").End()

	// Per-node stage runners over each node's private storage, with
	// lockstep resume: every node must have committed (and still validate)
	// a stage for any node to skip it, so nodes never run in inconsistent
	// stages.
	inputHash := core.InputFingerprint(rs)
	runners := make([]*core.StageRunner, len(c.nodes))
	resumeAt := len(nodeStages)
	maxAt := 0
	for i, n := range c.nodes {
		runners[i] = core.NewStageRunner(n.dir, c.cfg.fingerprint(n.id), inputHash,
			c.cfg.Resume, nodeStages)
		runners[i].SetObserver(c.cfg.Obs, nodeTrack(n.id))
		resumeAt = min(resumeAt, runners[i].ResumeAt())
		maxAt = max(maxAt, runners[i].ResumeAt())
	}
	if resumeAt != maxAt {
		// The nodes crashed mid-stage and diverged: a node that already
		// committed the stage has cleaned up its inputs (Sort deletes the
		// shuffled partitions), so it cannot re-run it in lockstep with the
		// stragglers. Fall back to a full re-run rather than trust a state
		// no node can recover from.
		resumeAt = 0
	}
	for i, n := range c.nodes {
		runners[i].LimitResume(resumeAt)
		if c.FaultHook != nil {
			id := n.id
			runners[i].SetFaultHook(func(stage core.PhaseName) error {
				return c.FaultHook(id, stage)
			})
		}
	}
	if resumeAt == 0 {
		// Starting from scratch: stale files from an interrupted or
		// invalidated run must not leak into this one.
		for _, n := range c.nodes {
			if err := os.RemoveAll(n.dir); err != nil {
				return res, err
			}
			if err := os.MkdirAll(n.dir, 0o755); err != nil {
				return res, err
			}
		}
	}

	// Map: the master's block list is assigned statically round-robin, so
	// each node's partition files are a deterministic function of (input,
	// config, node ID) — the property per-node resume checksums rely on.
	// (Section III-E.1 describes dynamic handout; with uniform blocks the
	// static schedule has the same balance and a reproducible layout.)
	numBlocks := (rs.NumReads() + c.cfg.InputBlockReads - 1) / c.cfg.InputBlockReads
	err := c.runPhase(core.PhaseMap, res, 0, func(n *node) error {
		return runners[n.id].Run(core.Stage{
			Name: core.PhaseMap,
			Fresh: func() (core.StageOutcome, error) {
				var out core.StageOutcome
				sfxW := kvio.NewPartitionWriters(n.dir, kvio.Suffix, n.meter)
				pfxW := kvio.NewPartitionWriters(n.dir, kvio.Prefix, n.meter)
				mapper := core.NewMapper(n.dev, &n.hostMem, c.cfg.MinOverlap, c.cfg.MapBatchReads, rs.MaxLen())
				mapper.Workers = c.cfg.WorkersPerNode
				mapper.Obs = c.cfg.Obs
				mapper.Track = nodeTrack(n.id)
				mapper.Profile = c.cfg.profile()
				for b := n.id; b < numBlocks; b += len(c.nodes) {
					start := b * c.cfg.InputBlockReads
					end := min(start+c.cfg.InputBlockReads, rs.NumReads())
					// The block is read from the shared distributed file
					// system (~2 bytes per base in FASTQ form).
					var blockBases int64
					for r := start; r < end; r++ {
						blockBases += int64(rs.Len(uint32(r)))
					}
					n.meter.AddDiskRead(2 * blockBases)
					if err := mapper.MapRange(ctx, rs, start, end, sfxW, pfxW); err != nil {
						return out, err
					}
				}
				counts := sfxW.Counts()
				if err := sfxW.Close(); err != nil {
					return out, err
				}
				if err := pfxW.Close(); err != nil {
					return out, err
				}
				for _, l := range core.SortedLengthsDesc(counts) {
					out.Artifacts = append(out.Artifacts,
						filepath.Base(kvio.PartitionPath(n.dir, kvio.Suffix, l)),
						filepath.Base(kvio.PartitionPath(n.dir, kvio.Prefix, l)))
				}
				return out, nil
			},
			// Map leaves no in-memory state: the shuffle discovers peer
			// partitions from the (validated) files themselves.
			Cached: func(core.StageRecord) error { return nil },
		})
	})
	if err != nil {
		return res, err
	}

	// Shuffle: every node aggregates its owned partitions from all peers
	// (Section III-E.2). Cross-node reads are charged to the network.
	err = c.runPhase(PhaseShuffle, res, 0, func(n *node) error {
		return runners[n.id].Run(core.Stage{
			Name: PhaseShuffle,
			Fresh: func() (core.StageOutcome, error) {
				var out core.StageOutcome
				if err := ctx.Err(); err != nil {
					return out, err
				}
				var err error
				if c.cfg.PartitionByFingerprint {
					err = c.shuffleNodeByFingerprint(rs.MaxLen(), n)
				} else {
					err = c.shuffleNode(rs, n)
				}
				if err != nil {
					return out, err
				}
				for _, l := range core.SortedLengthsDesc(n.counts) {
					out.Artifacts = append(out.Artifacts,
						shufName(kvio.Suffix, l), shufName(kvio.Prefix, l))
				}
				return out, nil
			},
			Cached: func(rec core.StageRecord) error {
				counts, err := shuffleCountsFromRecord(rec)
				if err != nil {
					return err
				}
				n.counts = counts
				return nil
			},
		})
	})
	if err != nil {
		return res, err
	}

	// Sort: each node externally sorts its owned partitions, deleting the
	// shuffled inputs only after the stage commits.
	err = c.runPhase(core.PhaseSort, res, 0, func(n *node) error {
		return runners[n.id].Run(core.Stage{
			Name: core.PhaseSort,
			Fresh: func() (core.StageOutcome, error) {
				var out core.StageOutcome
				if err := c.sortNode(ctx, n); err != nil {
					return out, err
				}
				for _, l := range core.SortedLengthsDesc(n.counts) {
					out.Artifacts = append(out.Artifacts,
						sortedName(kvio.Suffix, l), sortedName(kvio.Prefix, l))
				}
				out.Cleanup = func() error {
					for l := range n.counts {
						for _, kind := range []kvio.Kind{kvio.Suffix, kvio.Prefix} {
							if err := os.Remove(filepath.Join(n.dir, shufName(kind, l))); err != nil && !os.IsNotExist(err) {
								return err
							}
						}
					}
					return nil
				}
				return out, nil
			},
			Cached: func(core.StageRecord) error { return nil },
		})
	})
	if err != nil {
		return res, err
	}
	res.CachedStages = runners[0].CachedStages()

	// Reduce: overlap finding in parallel, then graph building serialized
	// by the bit-vector token in descending length order (Section
	// III-E.3).
	g, keptShipBytes, err := c.reducePhase(ctx, rs, res)
	if err != nil {
		return res, err
	}

	// Compress: the master collects the nodes' edges and generates
	// contigs.
	err = c.runPhase(core.PhaseCompress, res, 0, func(n *node) error {
		if n.id != 0 {
			return nil
		}
		return c.compressOnMaster(rs, g, keptShipBytes, res)
	})
	return res, err
}

// shufName / sortedName name a node's post-shuffle and post-sort partition
// files (relative to the node dir).
func shufName(k kvio.Kind, l int) string {
	return fmt.Sprintf("shuf_%s_%04d.kv", k, l)
}

func sortedName(k kvio.Kind, l int) string {
	return fmt.Sprintf("sorted_%s_%04d.kv", k, l)
}

// shuffleCountsFromRecord rebuilds a node's owned-partition counts from a
// committed Shuffle record: each suffix artifact holds exactly its
// partition's pairs, so the counts (zero-sized partitions included) fall
// out of the recorded sizes.
func shuffleCountsFromRecord(rec core.StageRecord) (map[int]int64, error) {
	counts := map[int]int64{}
	prefix := "shuf_" + kvio.Suffix.String() + "_"
	for _, a := range rec.Artifacts {
		base := path.Base(a.Path)
		if !strings.HasPrefix(base, prefix) || !strings.HasSuffix(base, ".kv") {
			continue
		}
		l, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(base, prefix), ".kv"))
		if err != nil {
			return nil, fmt.Errorf("cluster: manifest shuffle artifact %q: %w", a.Path, err)
		}
		counts[l] = a.Bytes / kv.PairBytes
	}
	return counts, nil
}

// shuffleNode pulls every peer's copy of the partitions n owns into n's
// local storage.
func (c *Cluster) shuffleNode(rs *dna.ReadSet, n *node) error {
	n.counts = map[int]int64{}
	for l := c.cfg.MinOverlap; l < rs.MaxLen(); l++ {
		if c.owner(l) != n {
			continue
		}
		if len(c.nodes) == 1 {
			// Single node: every partition is already local and whole, so
			// the shuffle degenerates to a rename — matching the paper,
			// where the all-to-all transfer only appears when scaling out
			// from one node.
			for _, kind := range []kvio.Kind{kvio.Suffix, kvio.Prefix} {
				src := kvio.PartitionPath(n.dir, kind, l)
				dst := filepath.Join(n.dir, fmt.Sprintf("shuf_%s_%04d.kv", kind, l))
				count, err := kvio.CountFile(src)
				if err != nil {
					return err
				}
				if count == 0 {
					continue
				}
				if err := os.Rename(src, dst); err != nil {
					return err
				}
				if kind == kvio.Suffix {
					n.counts[l] = count
				}
			}
			continue
		}
		for _, kind := range []kvio.Kind{kvio.Suffix, kvio.Prefix} {
			outPath := filepath.Join(n.dir, fmt.Sprintf("shuf_%s_%04d.kv", kind, l))
			w, err := kvio.NewWriter(outPath, n.meter)
			if err != nil {
				return err
			}
			var total int64
			for _, peer := range c.nodes {
				in := kvio.PartitionPath(peer.dir, kind, l)
				moved, err := copyPairs(w, in, peer.meter)
				if err != nil {
					w.Close()
					return err
				}
				if peer != n {
					// Active-message response crossing the network.
					n.meter.AddNet(moved * kv.PairBytes)
				}
				total += moved
			}
			if kind == kvio.Suffix {
				n.counts[l] = total
			}
			if err := w.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

// copyPairs streams a partition file (which may be absent) into w,
// metering the read on the serving peer's meter. Returns pairs moved.
func copyPairs(w *kvio.Writer, path string, serveMeter *costmodel.Meter) (int64, error) {
	r, err := kvio.NewReader(path, serveMeter)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer r.Close()
	buf := make([]kv.Pair, 4096)
	var moved int64
	for {
		m, err := r.ReadBatch(buf)
		if m > 0 {
			if werr := w.WriteBatch(buf[:m]); werr != nil {
				return moved, werr
			}
			moved += int64(m)
		}
		if err == io.EOF {
			return moved, nil
		}
		if err != nil {
			return moved, err
		}
	}
}

func (c *Cluster) sortNode(ctx context.Context, n *node) error {
	type task struct {
		l    int
		kind kvio.Kind
	}
	var tasks []task
	for _, l := range core.SortedLengthsDesc(n.counts) {
		tasks = append(tasks, task{l, kvio.Suffix}, task{l, kvio.Prefix})
	}
	return core.RunTasks(c.cfg.WorkersPerNode, len(tasks), func(_, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		t := tasks[i]
		// Private scratch per concurrent sort: run/merge file names repeat
		// across SortFile calls, so parallel sorts must not share TempDir.
		tmpDir := filepath.Join(n.dir, fmt.Sprintf("sort_%s_%04d", t.kind, t.l))
		if err := os.MkdirAll(tmpDir, 0o755); err != nil {
			return err
		}
		defer os.RemoveAll(tmpDir)
		cfg := extsort.Config{
			Device:           n.dev,
			Meter:            n.meter,
			HostMem:          &n.hostMem,
			HostBlockPairs:   c.cfg.HostBlockPairs,
			DeviceBlockPairs: c.cfg.DeviceBlockPairs,
			TempDir:          tmpDir,
			Obs:              c.cfg.Obs,
			Overlap:          n.ledger,
		}
		in := filepath.Join(n.dir, shufName(t.kind, t.l))
		out := filepath.Join(n.dir, sortedName(t.kind, t.l))
		if _, err := extsort.SortFile(ctx, cfg, in, out); err != nil {
			return fmt.Errorf("cluster: node %d sorting partition %d (%s): %w",
				n.id, t.l, t.kind, err)
		}
		return nil
	})
}

// cand is one verified candidate overlap buffered between a node's
// overlap finding and the serialized graph-building step.
type cand struct{ u, v uint32 }

// reducePhase runs overlap finding on all nodes in parallel, then feeds
// every node's candidates to the engine on the master strictly in
// descending partition order, forwarding the token between owners. It
// returns the reduced graph, which stays charged to the master until
// Compress releases it, and the master network bytes Compress charges
// for collecting the edges the other nodes kept.
func (c *Cluster) reducePhase(ctx context.Context, rs *dna.ReadSet, res *Result) (core.ReducedGraph, int64, error) {
	maxLen := rs.MaxLen()
	// candidates[l][nodeID]: with length partitioning only the owner's
	// slot fills; with fingerprint partitioning every node contributes a
	// fingerprint-ordered slice, and node-ID order re-assembles the
	// global fingerprint order of the single-node reduce.
	candidates := make(map[int][][]cand)
	var candMu sync.Mutex

	// Parallel overlap finding (the t_o component).
	err := c.runPhase(core.PhaseReduce, res, 0, func(n *node) error {
		cfg := overlap.Config{
			Device:      n.dev,
			Meter:       n.meter,
			HostMem:     &n.hostMem,
			WindowPairs: max(c.cfg.HostBlockPairs/2, 1),
			Obs:         c.cfg.Obs,
			Overlap:     n.ledger,
		}
		lengths := core.SortedLengthsDesc(n.counts)
		return core.RunTasks(c.cfg.WorkersPerNode, len(lengths), func(_, i int) error {
			l := lengths[i]
			sfx := filepath.Join(n.dir, sortedName(kvio.Suffix, l))
			pfx := filepath.Join(n.dir, sortedName(kvio.Prefix, l))
			var list []cand
			err := overlap.ReducePaths(ctx, cfg, sfx, pfx, func(u, v uint32) error {
				list = append(list, cand{u, v})
				return nil
			})
			if err != nil {
				return err
			}
			candMu.Lock()
			if candidates[l] == nil {
				candidates[l] = make([][]cand, len(c.nodes))
			}
			candidates[l][n.id] = list
			res.CandidateEdges += int64(len(list))
			candMu.Unlock()
			return nil
		})
	})
	if err != nil {
		return nil, 0, err
	}

	// Serialized graph building (the t_g component). The wall-clock cost
	// is tiny; the modeled cost is the engine's ClusterCharges on the
	// dedicated serial meter plus whatever the engine itself charges the
	// master (the string graph's spill, sort, and reduction), both added
	// to the reduce phase.
	master := c.nodes[0]
	charges := c.engine.ClusterCharges(rs.NumReads())
	prof := c.cfg.profile()
	serialBefore := c.serial.Snapshot()
	masterBefore, savedBefore := master.meter.Snapshot(), master.ledger.SavedSeconds()
	serialSpan := c.cfg.Obs.Tracer().Begin(obs.Track{}, "stage", "ReduceSerial").
		Metered(c.serial, prof)
	var keptElsewhere int64 // candidates kept from non-master nodes
	g, serialErr := c.engine.Reduce(ctx, c.masterEnv(rs), func(add core.AddFunc) error {
		prevOwner := -1
		for l := maxLen - 1; l >= c.cfg.MinOverlap; l-- {
			for nodeID, list := range candidates[l] {
				if len(list) == 0 {
					continue
				}
				if prevOwner != -1 && prevOwner != nodeID {
					c.serial.AddNet(charges.TokenBytes)
				}
				prevOwner = nodeID
				if nodeID != master.id {
					c.serial.AddNet(int64(len(list)) * charges.CandidateShipBytes)
				}
				for _, cd := range list {
					c.serial.AddHostMem(charges.CandidateHostBytes)
					if add(cd.u, cd.v, uint16(l)) && nodeID != master.id {
						keptElsewhere++
					}
				}
			}
			delete(candidates, l)
		}
		return nil
	})
	serialSpan.End()
	// The master's own modeled time for the engine's work, overlap
	// savings netted out.
	masterTime := master.meter.Snapshot().Sub(masterBefore).Time(prof) -
		time.Duration((master.ledger.SavedSeconds()-savedBefore)*float64(time.Second))
	serialTime := c.serial.Snapshot().Sub(serialBefore).Time(prof) + max(masterTime, 0)
	// Fold the serialized component into the recorded reduce phase.
	last := &res.Phases[len(res.Phases)-1]
	res.ReduceOverlapModeled = last.Modeled
	res.ReduceSerialModeled = serialTime
	last.Modeled += serialTime
	res.TotalModeled += serialTime
	if serialErr != nil {
		return nil, 0, serialErr
	}
	res.AcceptedEdges = g.Accepted()
	res.ReducedEdges = g.Removed()
	return g, keptElsewhere * charges.KeptShipBytes, nil
}

// masterEnv is what the engine runs against on the master: its device,
// meter, host tracker (charged with the graph too) and storage.
func (c *Cluster) masterEnv(rs *dna.ReadSet) core.EngineEnv {
	master := c.nodes[0]
	return core.EngineEnv{
		Sort: extsort.Config{
			Device:           master.dev,
			Meter:            master.meter,
			HostMem:          &master.hostMem,
			HostBlockPairs:   c.cfg.HostBlockPairs,
			DeviceBlockPairs: c.cfg.DeviceBlockPairs,
			TempDir:          filepath.Join(master.dir, "sort_succinct"),
			Obs:              c.cfg.Obs,
			Overlap:          master.ledger,
		},
		GraphMem: &master.hostMem,
		Reads:    rs,
		Traverse: graph.TraverseOptions{
			IncludeSingletons: c.cfg.IncludeSingletons,
			BreakCycles:       c.cfg.BreakCycles,
		},
	}
}

// compressOnMaster collects the edges the other nodes kept (keptShipBytes
// of network traffic on the master) and generates contigs on node 0 from
// the reduced graph, releasing it. Paths come from the same engine rule
// as a single-node run, so the FASTA bytes match it. Unlike the
// single-node pipeline, the FASTA write is not metered.
func (c *Cluster) compressOnMaster(rs *dna.ReadSet, g core.ReducedGraph, keptShipBytes int64, res *Result) error {
	master := c.nodes[0]
	master.meter.AddNet(keptShipBytes)
	paths := g.Paths()
	g.Release()
	res.Contigs = contig.Generate(contig.Config{Device: master.dev}, paths, rs)
	res.ContigStats = contig.Summarize(res.Contigs)
	res.ContigPath = filepath.Join(c.cfg.Workspace, "contigs.fasta")
	_, err := contig.WriteFASTA(res.ContigPath, res.Contigs)
	return err
}
