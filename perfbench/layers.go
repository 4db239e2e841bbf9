package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	lasagna "repro"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dna"
	"repro/internal/fingerprint"
	"repro/internal/gpu"
	"repro/internal/kv"
	"repro/internal/kvio"
	"repro/internal/obs"
)

// The pipeline stages in execution order, as the per-layer metric names
// spell them (core.<stage>_s and friends).
var stageNames = []string{"map", "sort", "reduce", "compress"}

// interval is a span of trace time in seconds.
type interval struct{ start, end float64 }

func (iv interval) dur() float64 { return iv.end - iv.start }

// traceView is the part of one run's trace the per-layer metrics read:
// the stage spans on the pipeline's stage lane, the per-partition spans on the
// worker lanes (one per map batch, extsort.SortFile call and
// overlap.ReducePaths call), and the device hooks' kernel launches and
// allocator waits. For a service job it also holds the scheduler's run
// attempt span and the pipeline's root run span.
type traceView struct {
	stages     map[string]interval
	partitions map[string][]interval
	kernels    []interval
	streamOps  []interval
	allocWaits []interval
	attempt    interval
	run        interval
}

func viewOf(events []obs.Event) traceView {
	v := traceView{stages: map[string]interval{}, partitions: map[string][]interval{}}
	open := map[string]float64{}
	var kernels, streamOps, waits []interval
	for _, e := range events {
		start := float64(e.TS) / 1e6
		iv := interval{start, start + float64(e.Dur)/1e6}
		switch {
		case e.Phase == "X" && e.Cat == "stage":
			v.stages[strings.ToLower(e.Name)] = iv
		case e.Phase == "X" && e.Cat == "partition":
			for _, st := range stageNames[:3] {
				if strings.HasPrefix(e.Name, st+" ") {
					v.partitions[st] = append(v.partitions[st], iv)
				}
			}
		case e.Phase == "X" && e.Cat == "run":
			v.run = iv
		case e.Phase == "X" && e.Cat == "sched" && strings.HasPrefix(e.Name, "run attempt"):
			v.attempt = iv
		case e.Phase == "b":
			open[e.ID] = start
		case e.Phase == "e":
			iv := interval{open[e.ID], start}
			switch e.Cat {
			case "kernel":
				kernels = append(kernels, iv)
			case "stream":
				streamOps = append(streamOps, iv)
			case "allocwait":
				waits = append(waits, iv)
			}
		}
	}
	v.kernels, v.streamOps, v.allocWaits = kernels, streamOps, waits
	return v
}

func sumDur(ivs []interval) float64 {
	s := 0.0
	for _, iv := range ivs {
		s += iv.dur()
	}
	return s
}

// unionDur is the time covered by at least one of the intervals.
func unionDur(ivs []interval) float64 {
	ivs = append([]interval(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	total, end := 0.0, -1.0
	for _, iv := range ivs {
		if iv.start > end {
			total += iv.dur()
			end = iv.end
		} else if iv.end > end {
			total += iv.end - end
			end = iv.end
		}
	}
	return total
}

// within returns the intervals that start inside w.
func within(ivs []interval, w interval) []interval {
	var out []interval
	for _, iv := range ivs {
		if iv.start >= w.start && iv.start < w.end {
			out = append(out, iv)
		}
	}
	return out
}

// spanLayers adds the metrics a trace yields to m: worker busy fractions,
// device kernel launches and stream ops per stage, allocator waits, the
// time spent inside extsort.SortFile and overlap.ReducePaths, and the
// part of Reduce no partition span covers (graph construction and
// reduction). Only Device.LaunchBlocks fires the kernel-launch hook, and
// the radix sort and the suffix-prefix match kernels are charged without
// it, so Sort's device work shows only as the stream ops that feed it.
func spanLayers(v traceView, workers int, m map[string]float64) {
	for _, st := range stageNames[:3] {
		w := v.stages[st]
		if w.dur() > 0 {
			m["core.busy_frac."+st] = sumDur(v.partitions[st]) / (float64(workers) * w.dur())
		}
		kernels := within(v.kernels, w)
		m["gpu.kernel_s."+st] = sumDur(kernels)
		m["gpu.kernel_launches."+st] = float64(len(kernels))
	}
	for _, st := range []string{"sort", "reduce"} {
		m["gpu.stream_op_s."+st] = sumDur(within(v.streamOps, v.stages[st]))
	}
	m["gpu.alloc_wait_s"] = sumDur(v.allocWaits)
	m["gpu.alloc_waits"] = float64(len(v.allocWaits))
	m["extsort.sort_file_s"] = sumDur(v.partitions["sort"])
	m["overlap.reduce_s"] = sumDur(v.partitions["reduce"])
	// Trace times are whole microseconds, so the difference can dip a
	// microsecond below zero.
	m["graph.reduce_self_s"] = max(0, v.stages["reduce"].dur()-unionDur(v.partitions["reduce"]))
}

// wallSplit divides one assembly's wall time into Load, the four stages,
// the stage commits between them, and the remainder no part accounts for.
type wallSplit struct {
	total, load, commit float64
	stages              map[string]float64
}

func (w wallSplit) unattributed() float64 {
	u := w.total - w.load - w.commit
	for _, s := range w.stages {
		u -= s
	}
	return u
}

func (w wallSplit) addTo(m map[string]float64) {
	m["core.load_s"] = w.load
	for _, st := range stageNames {
		m["core."+st+"_s"] = w.stages[st]
	}
	m["core.commit_s"] = w.commit
	m["core.unattributed_s"] = w.unattributed()
}

// progressLog timestamps Config.Progress events. The pipeline delivers
// them on the goroutine that runs the stages, and the log is read after the
// run returns, so it needs no lock.
type progressLog struct {
	at map[string]time.Time // "<Stage>/<event>"
}

func (p *progressLog) record(stage, event string) {
	if p.at == nil {
		p.at = map[string]time.Time{}
	}
	p.at[stage+"/"+event] = time.Now()
}

// splitDirect splits a direct run: stage walls from PhaseStats, and the
// commits as the gaps from each stage's "done" to the next stage's
// "start", plus the tail from Compress's "done" to the run's return.
// Those gaps hold the artifact checksums, the manifest write and the
// clean-up of consumed inputs.
func splitDirect(res *lasagna.Result, prog *progressLog, total time.Duration, end time.Time) wallSplit {
	w := wallSplit{total: total.Seconds(), stages: map[string]float64{}}
	for _, ph := range res.Phases {
		if ph.Name == string(core.PhaseLoad) {
			w.load = ph.Wall.Seconds()
		} else {
			w.stages[strings.ToLower(ph.Name)] = ph.Wall.Seconds()
		}
	}
	phases := []core.PhaseName{core.PhaseMap, core.PhaseSort, core.PhaseReduce, core.PhaseCompress}
	for i, ph := range phases {
		next := end
		if i+1 < len(phases) {
			next = prog.at[string(phases[i+1])+"/"+core.ProgressStart]
		}
		w.commit += next.Sub(prog.at[string(ph)+"/"+core.ProgressDone]).Seconds()
	}
	return w
}

// splitJob splits a service job from its flight trace. The job has no
// Load stage: its load is the reload of the persisted input before the
// pipeline's root span opens. Commits are the gaps between stage spans
// plus the tail from Compress to the end of the run attempt, which also
// holds the result install and the job-record rewrite.
func splitJob(v traceView) wallSplit {
	w := wallSplit{total: v.attempt.dur(), load: v.run.start - v.attempt.start, stages: map[string]float64{}}
	for i, st := range stageNames {
		w.stages[st] = v.stages[st].dur()
		next := v.attempt.end
		if i+1 < len(stageNames) {
			next = v.stages[stageNames[i+1]].start
		}
		w.commit += next - v.stages[st].end
	}
	return w
}

// resultLayers adds the counters and modeled seconds a Result and the
// run's metrics registry carry.
func resultLayers(res *lasagna.Result, reg *obs.Registry, m map[string]float64) {
	var graphPeak int64
	for _, ph := range res.Phases {
		graphPeak = max(graphPeak, ph.GraphHostPeak)
		if ph.Name == string(core.PhaseLoad) {
			continue
		}
		st := strings.ToLower(ph.Name)
		m["core."+st+"_modeled_s"] = ph.Modeled.Seconds()
		m["host.peak_mb."+st] = mb(ph.PeakHost)
	}
	m["graph.host_peak_mb"] = mb(graphPeak)
	m["extsort.disk_passes"] = float64(res.SortDiskPasses)
	m["overlap.candidates"] = float64(res.CandidateEdges)
	m["overlap.accept_ratio"] = ratio(float64(res.AcceptedEdges), float64(res.CandidateEdges))
	m["contig.count"] = float64(res.ContigStats.NumContigs)
	m["costmodel.tier_s.disk_read"] = res.Modeled.DiskReadSec
	m["costmodel.tier_s.disk_write"] = res.Modeled.DiskWriteSec
	m["costmodel.tier_s.pcie"] = res.Modeled.PCIeSec
	m["costmodel.tier_s.device_mem"] = res.Modeled.DeviceMemSec
	m["costmodel.tier_s.device_ops"] = res.Modeled.DeviceOpsSec
	m["costmodel.overlap_saved_s"] = res.OverlapSaved.Seconds()
	// The graph engines label their counters by backend; sum over labels.
	counters := reg.Snapshot().Counters
	for _, name := range []string{"graph.nnz", "graph.removed_edges", "graph.spgemm_flops"} {
		m[name] = 0
		for k, c := range counters {
			if strings.HasPrefix(k, name+"{") {
				m[name] += float64(c)
			}
		}
	}
}

// scanNsPerRead times fingerprint.Kernel.ScanRead over every read, the
// per-read kernel the Map stage runs on each strand.
func scanNsPerRead(rs *dna.ReadSet) float64 {
	kern := fingerprint.NewKernel(fingerprint.NewTable(rs.MaxLen()))
	dev := gpu.NewDevice(gpu.K40, costmodel.NewMeter())
	var pf, sf []kv.Key
	start := time.Now()
	for i := 0; i < rs.NumReads(); i++ {
		pf, sf = kern.ScanRead(dev, rs.Read(uint32(i)), pf, sf)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rs.NumReads())
}

// kvioProbe reads every sorted partition a run kept with kvio's reader
// and writes it back through kvio's writer into scratch, timing reads,
// writes and the per-file Close (flush, fsync, close) apart.
func kvioProbe(partDir, scratch string, m map[string]float64) error {
	paths, err := filepath.Glob(filepath.Join(partDir, "*.sorted"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no sorted partitions kept in %s", partDir)
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	var size int64
	var readT, writeT, closeT time.Duration
	buf := make([]kv.Pair, 1<<14)
	var pairs []kv.Pair
	for _, p := range paths {
		t := time.Now()
		r, err := kvio.NewReader(p, nil)
		if err != nil {
			return err
		}
		pairs = pairs[:0]
		for {
			n, err := r.ReadBatch(buf)
			pairs = append(pairs, buf[:n]...)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				r.Close()
				return err
			}
		}
		r.Close()
		readT += time.Since(t)
		size += r.Count() * kv.PairBytes

		t = time.Now()
		w, err := kvio.NewWriter(filepath.Join(scratch, filepath.Base(p)), nil)
		if err != nil {
			return err
		}
		if err := w.WriteBatch(pairs); err != nil {
			w.Close()
			return err
		}
		c := time.Now()
		writeT += c.Sub(t)
		if err := w.Close(); err != nil {
			return err
		}
		closeT += time.Since(c)
	}
	m["kvio.read_mb_per_s"] = mb(size) / readT.Seconds()
	m["kvio.write_mb_per_s"] = mb(size) / writeT.Seconds()
	m["kvio.close_ms_per_file"] = closeT.Seconds() * 1e3 / float64(len(paths))
	return nil
}
