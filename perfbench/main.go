// Command perfbench is the repository benchmark: it generates a
// workload's inputs from a seed, runs them through the program's public
// surface for a fixed time, checks every output against the genome it
// was simulated from, and prints the metrics as one JSON object on the
// last line of standard output.
//
//	bash perfbench/run.sh --workload greedy-hgenome --seed 1404 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured untraced. With
// --trace 1 it repeats the run with the pipeline's observability hooks on
// and prints the per-layer metrics instead, and writes a Perfetto-loadable
// trace and the per-layer JSON under .bench_build/traces/. Every metric
// name appears on every workload; a layer a workload does not exercise
// reads 0 (the serve.* metrics on the assembly workloads, for example).
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//   - greedy-hgenome: the paper pipeline (greedy engine, 2 workers) on the
//     scaled H.Genome profile, 124,800 x 100 bp reads of a 400 kb genome.
//   - strgraph-hgenome: the same reads through the succinct string-graph
//     engine.
//   - service-smalljobs: an in-process job server (one K40, two concurrent
//     runs) driven over loopback HTTP by a closed loop of two clients, each
//     submitting a job on one of 8 H.Chr14 inputs (4,515 x 101 bp reads),
//     polling it to a terminal state every 10 ms and fetching its FASTA
//     before submitting the next.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/readsim"
)

// buildDir is the checkout-relative directory the benchmark writes to:
// run.sh builds into it, runs keep their scratch files in it and traced
// runs leave their trace files in it.
const buildDir = ".bench_build"

type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// scale multiplies the genome length of every generated input: 1 in
	// the benchmark, far less in its tests.
	scale float64
	// dir holds the run's inputs and workspaces.
	dir string
}

var workloads = map[string]func(context.Context, options) (*runReport, error){
	"greedy-hgenome": func(ctx context.Context, o options) (*runReport, error) {
		return runAssembly(ctx, o, core.BackendGreedy)
	},
	"strgraph-hgenome": func(ctx context.Context, o options) (*runReport, error) {
		return runAssembly(ctx, o, core.BackendSuccinct)
	},
	"service-smalljobs": runService,
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports. failed_frac is not
// among them: it is 0 on a correct run, so it travels as the result's
// attempted and failed counts instead.
var endToEnd = []metricDef{
	{"assembly_s", "s"},
	{"modeled_s", "s"},
	{"peak_rss_mb", "MB"},
	{"n50", "bp"},
	{"contig_bases_ratio", "ratio"},
	{"genome_coverage", "fraction"},
	{"job_latency_p50_s", "s"},
	{"job_latency_p90_s", "s"},
	{"jobs_per_s", "1/s"},
	{"setup_s", "s"},
}

// perLayer are the metrics a traced run reports.
var perLayer = func() []metricDef {
	defs := []metricDef{{"core.load_s", "s"}}
	for _, st := range stageNames {
		defs = append(defs, metricDef{"core." + st + "_s", "s"})
	}
	for _, st := range stageNames {
		defs = append(defs, metricDef{"core." + st + "_modeled_s", "s"})
	}
	defs = append(defs, metricDef{"core.commit_s", "s"}, metricDef{"core.unattributed_s", "s"})
	for _, st := range stageNames[:3] {
		defs = append(defs, metricDef{"core.busy_frac." + st, "fraction"})
	}
	defs = append(defs, metricDef{"fingerprint.scan_ns_per_read", "ns"})
	for _, st := range stageNames[:3] {
		defs = append(defs, metricDef{"gpu.kernel_s." + st, "s"}, metricDef{"gpu.kernel_launches." + st, "count"})
	}
	defs = append(defs,
		metricDef{"gpu.stream_op_s.sort", "s"},
		metricDef{"gpu.stream_op_s.reduce", "s"},
		metricDef{"gpu.alloc_wait_s", "s"},
		metricDef{"gpu.alloc_waits", "count"},
		metricDef{"extsort.sort_file_s", "s"},
		metricDef{"extsort.disk_passes", "count"},
		metricDef{"kvio.read_mb_per_s", "MB/s"},
		metricDef{"kvio.write_mb_per_s", "MB/s"},
		metricDef{"kvio.close_ms_per_file", "ms"},
		metricDef{"overlap.reduce_s", "s"},
		metricDef{"overlap.candidates", "count"},
		metricDef{"overlap.accept_ratio", "ratio"},
		metricDef{"graph.reduce_self_s", "s"},
		metricDef{"graph.nnz", "count"},
		metricDef{"graph.removed_edges", "count"},
		metricDef{"graph.spgemm_flops", "count"},
		metricDef{"graph.host_peak_mb", "MB"},
		metricDef{"contig.count", "count"},
	)
	for _, tier := range []string{"disk_read", "disk_write", "pcie", "device_mem", "device_ops"} {
		defs = append(defs, metricDef{"costmodel.tier_s." + tier, "s"})
	}
	defs = append(defs, metricDef{"costmodel.overlap_saved_s", "s"})
	for _, st := range stageNames {
		defs = append(defs, metricDef{"host.peak_mb." + st, "MB"})
	}
	for _, s := range []string{"submit_s", "queue_wait_s", "run_s", "notify_lag_s", "fetch_s"} {
		defs = append(defs, metricDef{"serve." + s, "s"})
	}
	// The traced run's own end-to-end times: the tracing overhead is these
	// minus the untraced assembly_s and job_latency_p50_s. On the service
	// workload trace.assembly_s is the mean run attempt the per-layer
	// times split, so compare its job_latency_p50_s instead.
	return append(defs, metricDef{"trace.assembly_s", "s"}, metricDef{"trace.job_latency_p50_s", "s"})
}()

// runReport is what a workload hands back: its metrics, its input
// properties and the correctness tally.
type runReport struct {
	props   properties
	metrics map[string]float64
	tally   tally
	// trace is one traced assembly's span trace (traced runs only).
	trace *obs.Tracer
	// jobTrace is one service job's flight trace, as the server served it.
	jobTrace []byte
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run (greedy-hgenome, strgraph-hgenome, service-smalljobs)")
	seed := flag.Int64("seed", readsim.HGenome.Seed, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 25, "how long to keep running assemblies or jobs")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		scale:   1,
		dir:     filepath.Join(buildDir, "run", fmt.Sprintf("%s-%d", *name, os.Getpid())),
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(o.dir)
	rep, err := wl(context.Background(), o)
	if err != nil {
		return err
	}
	if o.trace {
		if err := writeTraceFiles(*name, o.seed, rep); err != nil {
			return err
		}
	}
	for _, f := range rep.tally.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	props, err := json.Marshal(map[string]any{"workload": *name, "properties": rep.props,
		"failedFrac": rep.tally.failedFrac()})
	if err != nil {
		return err
	}
	fmt.Println(string(props))
	line, err := json.Marshal(rep.result(o.trace))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// result renders the final line: every metric of the run's kind, in the
// units BENCHMARK.json declares.
func (r *runReport) result(traced bool) resultLine {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := resultLine{
		Correct:   r.tally.failed == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricOut{Value: r.metrics[d.name], Unit: d.unit}
	}
	return out
}

// writeTraceFiles leaves a traced run's Perfetto trace and per-layer JSON
// under .bench_build/traces.
func writeTraceFiles(workload string, seed int64, rep *runReport) error {
	dir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	if rep.trace != nil {
		if err := rep.trace.WriteFile(base + ".trace.json"); err != nil {
			return err
		}
	}
	if rep.jobTrace != nil {
		if err := os.WriteFile(base+".trace.json", rep.jobTrace, 0o644); err != nil {
			return err
		}
	}
	layers, err := json.MarshalIndent(map[string]any{
		"workload":   workload,
		"properties": rep.props,
		"layers":     rep.result(true).Metrics,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".layers.json", layers, 0o644)
}
