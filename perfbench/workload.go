package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"

	"repro/internal/dna"
	"repro/internal/fastq"
	"repro/internal/readsim"
)

// setupRepeats is how often a run repeats its set-up; setup_s is the
// median, so one slow file-system flush does not move it.
const setupRepeats = 7

// properties are the input properties a later claim may depend on,
// recorded next to the metrics of every run.
type properties struct {
	Seed           int64   `json:"seed"`
	GenomeLen      int     `json:"genomeLen"`
	ReadLen        int     `json:"readLen"`
	Coverage       float64 `json:"coverage"`
	Reads          int     `json:"reads"`
	RepeatCopies   int     `json:"repeatCopies"`
	DuplicateShare float64 `json:"duplicateShare"`
	// The service workload's shape; zero on the assembly workloads.
	Inputs         int     `json:"inputs,omitempty"`
	Clients        int     `json:"clients,omitempty"`
	PollIntervalMs float64 `json:"pollIntervalMs,omitempty"`
	Jobs           int     `json:"jobs,omitempty"`
}

// profileProperties describes the inputs one profile generates. The repeat
// count restates readsim.Profile.Generate's rule of one planted copy per
// 20 kb of genome.
func profileProperties(p readsim.Profile, reads *dna.ReadSet) properties {
	_, dups := dna.Deduplicate(reads)
	return properties{
		Seed:           p.Seed,
		GenomeLen:      p.GenomeLen,
		ReadLen:        p.ReadLen,
		Coverage:       p.Coverage,
		Reads:          reads.NumReads(),
		RepeatCopies:   p.GenomeLen / 20_000,
		DuplicateShare: float64(dups) / float64(reads.NumReads()),
	}
}

// writeInput generates a profile's genome and reads and writes the reads
// as FASTQ, the form every workload hands to the program.
func writeInput(p readsim.Profile, path string) (dna.Seq, *dna.ReadSet, error) {
	genome, reads := p.Generate()
	return genome, reads, fastq.WriteFastqFile(path, reads)
}

// timed runs fn and returns its wall time in seconds.
func timed(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. An empty slice, left when every run failed, yields 0; the
// result then reports the failures.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mb(bytes int64) float64 { return float64(bytes) / (1 << 20) }

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// meanOf averages per-job layer samples metric by metric. Averaging keeps
// sums: the mean parts of the jobs' wall times add up to their mean wall.
func meanOf(samples []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		for k, v := range s {
			out[k] += v / float64(len(samples))
		}
	}
	return out
}
