package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	lasagna "repro"
	"repro/internal/dna"
	"repro/internal/obs"
	"repro/internal/readsim"
)

// hgenomeWorkers is the pipeline's worker count on the assembly
// workloads: one per CPU of the two-CPU machines the benchmark targets.
const hgenomeWorkers = 2

// directRun is one lasagna.AssembleFileContext call.
type directRun struct {
	res   *lasagna.Result
	wall  time.Duration
	fasta []byte
	err   error
	// Traced runs only: the run's trace, its metrics registry and its
	// per-layer metrics.
	tracer *obs.Tracer
	reg    *obs.Registry
	layers map[string]float64
}

// assembleDirect assembles the FASTQ at in within a fresh workspace ws,
// which it removes afterwards unless keep is set. A traced run observes
// the pipeline through its public hooks only: Config.Obs (trace spans and
// the metrics registry) and Config.Progress.
func assembleDirect(ctx context.Context, cfg lasagna.Config, in, ws string, traced, keep bool) directRun {
	var r directRun
	if err := os.MkdirAll(ws, 0o755); err != nil {
		r.err = err
		return r
	}
	if !keep {
		defer os.RemoveAll(ws)
	}
	cfg.Workspace = ws
	cfg.KeepIntermediate = keep
	var prog progressLog
	if traced {
		r.tracer, r.reg = obs.NewTracer(), obs.NewRegistry()
		cfg.Obs = obs.New(nil, r.tracer, r.reg)
		cfg.Progress = prog.record
	}
	start := time.Now()
	r.res, r.err = lasagna.AssembleFileContext(ctx, cfg, in)
	end := time.Now()
	r.wall = end.Sub(start)
	if r.err != nil {
		return r
	}
	if r.fasta, r.err = os.ReadFile(r.res.ContigPath); r.err != nil || !traced {
		return r
	}
	r.layers = map[string]float64{"trace.assembly_s": r.wall.Seconds()}
	splitDirect(r.res, &prog, r.wall, end).addTo(r.layers)
	spanLayers(viewOf(r.tracer.Events()), cfg.Workers, r.layers)
	resultLayers(r.res, r.reg, r.layers)
	return r
}

// runAssembly is the greedy-hgenome and strgraph-hgenome workload: the
// paper pipeline on the scaled H.Genome profile, driven through
// lasagna.AssembleFileContext from FASTQ on disk, repeated until the run
// time is spent.
func runAssembly(ctx context.Context, o options, backend string) (*runReport, error) {
	p := readsim.HGenome.Scaled(o.scale)
	p.Seed = o.seed
	in := filepath.Join(o.dir, "reads.fastq")
	var genome dna.Seq
	var reads *dna.ReadSet
	setups := make([]float64, setupRepeats)
	for i := range setups {
		var err error
		setups[i], err = timed(func() error {
			var err error
			genome, reads, err = writeInput(p, in)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("writing input: %w", err)
		}
	}

	cfg := lasagna.DefaultConfig("")
	cfg.Workers = hgenomeWorkers
	cfg.MinOverlap = p.MinOverlap
	cfg.GraphBackend = backend
	var runs []directRun
	start := time.Now()
	for len(runs) == 0 || time.Since(start) < o.seconds {
		// Each assembly starts from a collected heap, so the process's
		// peak RSS reflects one assembly and not the garbage of the last.
		gcStart := time.Now()
		runtime.GC()
		start = start.Add(time.Since(gcStart))
		ws := filepath.Join(o.dir, fmt.Sprintf("ws%d", len(runs)))
		// The first traced run keeps its sorted partitions for the kvio
		// probe below.
		runs = append(runs, assembleDirect(ctx, cfg, in, ws, o.trace, o.trace && len(runs) == 0))
	}
	rssMB, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Correctness checks, after the timed section.
	al := newAligner(genome)
	atts := make([]attempt, len(runs))
	for i, r := range runs {
		atts[i] = attempt{set: "reads", err: r.err, fasta: r.fasta, genome: al}
	}
	rep := &runReport{props: profileProperties(p, reads)}
	var walls, modeled []float64
	var q *alignment
	for i, v := range checkAttempts(atts) {
		rep.tally.add(v.failure)
		if runs[i].err != nil {
			continue
		}
		walls = append(walls, runs[i].wall.Seconds())
		modeled = append(modeled, runs[i].res.TotalModeled.Seconds())
		if q == nil && v.failure == "" {
			q = &v.quality
		}
	}
	if q == nil {
		q = &alignment{genomeLen: len(genome)}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d assemblies, wall s %.3f, setup s %.3f\n", len(runs), walls, setups)

	if !o.trace {
		rep.metrics = map[string]float64{
			"assembly_s":         median(walls),
			"modeled_s":          median(modeled),
			"peak_rss_mb":        rssMB,
			"n50":                float64(q.stats.N50),
			"contig_bases_ratio": q.basesRatio(),
			"genome_coverage":    q.coverage(),
			// Each assembly is one job here, so its latency is its wall
			// time.
			"job_latency_p50_s": median(walls),
			"job_latency_p90_s": quantile(walls, 0.9),
			"jobs_per_s":        float64(len(walls)) / sum(walls),
			"setup_s":           median(setups),
		}
		return rep, nil
	}

	// The per-layer metrics are those of the median-wall traced assembly,
	// taken whole so its parts still add up to its wall time.
	var traced []directRun
	for _, r := range runs {
		if r.layers != nil {
			traced = append(traced, r)
		}
	}
	if len(traced) == 0 {
		return nil, fmt.Errorf("every traced assembly failed: %v", runs[0].err)
	}
	sort.Slice(traced, func(i, j int) bool { return traced[i].wall < traced[j].wall })
	rep.metrics = traced[(len(traced)-1)/2].layers
	rep.metrics["trace.job_latency_p50_s"] = rep.metrics["trace.assembly_s"]
	rep.metrics["fingerprint.scan_ns_per_read"] = scanNsPerRead(reads)
	first := filepath.Join(o.dir, "ws0")
	defer os.RemoveAll(first)
	if runs[0].err == nil {
		if err := kvioProbe(filepath.Join(first, "partitions"), filepath.Join(o.dir, "kvio"), rep.metrics); err != nil {
			return nil, fmt.Errorf("kvio probe: %w", err)
		}
	}
	rep.trace = runs[0].tracer
	return rep, nil
}
