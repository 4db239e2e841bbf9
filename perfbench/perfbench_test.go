package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	lasagna "repro"
	"repro/internal/dna"
	"repro/internal/quality"
	"repro/internal/readsim"
)

// tinyOptions runs a workload at a small fraction of its size for one
// assembly (or one job per client).
func tinyOptions(t *testing.T, traced bool) options {
	return options{seed: 7, seconds: time.Millisecond, trace: traced, scale: 0.05, dir: t.TempDir()}
}

// greedyFASTA assembles a small profile once and returns its genome and
// contigs.fasta bytes.
func greedyFASTA(t *testing.T) (dna.Seq, []byte) {
	t.Helper()
	p := readsim.HChr14.Scaled(0.25)
	p.Seed = 11
	in := filepath.Join(t.TempDir(), "reads.fastq")
	genome, _, err := writeInput(p, in)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lasagna.DefaultConfig("")
	cfg.MinOverlap = p.MinOverlap
	r := assembleDirect(context.Background(), cfg, in, t.TempDir(), false, false)
	if r.err != nil {
		t.Fatal(r.err)
	}
	return genome, r.fasta
}

func TestAlignerMatchesQualityEvaluate(t *testing.T) {
	genome, fasta := greedyFASTA(t)
	contigs, err := fastaContigs(fasta)
	if err != nil {
		t.Fatal(err)
	}
	mutated := genome[1000:1300].Clone()
	mutated[150] = (mutated[150] + 1) % dna.Alphabet
	contigs = append(contigs,
		genome[200:700],                     // forward
		genome[650:900].ReverseComplement(), // reverse strand, overlapping
		mutated,                             // aligns nowhere
		genome[len(genome)-120:],            // genome end
	)
	want := quality.Evaluate(genome, contigs)
	got := newAligner(genome).align(contigs)
	if got.exactContigs != want.ExactContigs || got.coveredBases != want.CoveredBases {
		t.Fatalf("aligner: exact %d covered %d; quality.Evaluate: exact %d covered %d",
			got.exactContigs, got.coveredBases, want.ExactContigs, want.CoveredBases)
	}
	if got.exactContigs != len(contigs)-1 {
		t.Fatalf("exact contigs = %d, want all but the mutated one (%d)", got.exactContigs, len(contigs)-1)
	}
}

// TestCheckerCountsFailures is the negative case: every kind of bad
// output must count as a failed operation.
func TestCheckerCountsFailures(t *testing.T) {
	genome, fasta := greedyFASTA(t)
	al := newAligner(genome)
	good := func() attempt { return attempt{set: "s", fasta: fasta, genome: al} }
	sum := sha256.Sum256(fasta)

	mutatedContig := bytes.Clone(fasta)
	seqStart := bytes.IndexByte(mutatedContig, '\n') + 1
	mutatedContig[seqStart] = map[byte]byte{'A': 'C', 'C': 'G', 'G': 'T', 'T': 'A'}[mutatedContig[seqStart]]
	// An extra contig that aligns but changes the file's hash.
	extraContig := append(bytes.Clone(fasta), []byte(">extra\n"+genome[:150].String()+"\n")...)

	cases := []struct {
		name string
		bad  func(a *attempt)
	}{
		{"run error", func(a *attempt) { a.err = errors.New("boom") }},
		{"mutated contig", func(a *attempt) { a.fasta = mutatedContig }},
		{"hash differs within set", func(a *attempt) { a.fasta = extraContig }},
		{"differs from direct assembly", func(a *attempt) { a.want = make([]byte, len(sum)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			atts := []attempt{good(), good()}
			tc.bad(&atts[1])
			var tl tally
			for _, v := range checkAttempts(atts) {
				tl.add(v.failure)
			}
			if tl.failedFrac() != 0.5 {
				t.Fatalf("failed_frac = %v (%v), want 0.5", tl.failedFrac(), tl.failures)
			}
		})
	}
	clean := []attempt{good(), good()}
	clean[1].want = sum[:]
	for _, v := range checkAttempts(clean) {
		if v.failure != "" {
			t.Fatalf("clean attempt failed: %s", v.failure)
		}
	}
}

// TestWorkloadShapeHeldOutSeed checks that a seed the benchmark was not
// tuned on gives a workload of the same shape as the default seed.
func TestWorkloadShapeHeldOutSeed(t *testing.T) {
	props := func(seed int64) properties {
		p := readsim.HGenome
		p.Seed = seed
		_, reads := p.Generate()
		return profileProperties(p, reads)
	}
	def, held := props(readsim.HGenome.Seed), props(90210)
	if math.Abs(def.DuplicateShare-0.141) > 0.002 {
		t.Errorf("default-seed duplicate share = %.4f, want about 0.141", def.DuplicateShare)
	}
	if math.Abs(def.DuplicateShare-held.DuplicateShare) > 0.01 {
		t.Errorf("duplicate share %.4f at the default seed, %.4f at a held-out seed",
			def.DuplicateShare, held.DuplicateShare)
	}
	def.Seed, held.Seed, def.DuplicateShare, held.DuplicateShare = 0, 0, 0, 0
	if def != held {
		t.Errorf("workload shape differs: %+v vs %+v", def, held)
	}
	if def.Reads != 124_800 || def.GenomeLen != 400_000 || def.RepeatCopies != 20 {
		t.Errorf("H.Genome shape = %+v", def)
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			rep, err := workloads[name](context.Background(), tinyOptions(t, false))
			if err != nil {
				t.Fatal(err)
			}
			res := rep.result(false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, rep.tally.failures)
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}
		})
	}
}

// TestTracedLayers checks the per-layer report: every metric present and
// non-negative, and the wall split adding up to the traced assembly time.
func TestTracedLayers(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			rep, err := workloads[name](context.Background(), tinyOptions(t, true))
			if err != nil {
				t.Fatal(err)
			}
			m := rep.metrics
			for _, d := range perLayer {
				v, ok := m[d.name]
				switch {
				case !ok && (name == "service-smalljobs" || !strings.HasPrefix(d.name, "serve.")):
					t.Errorf("%s missing", d.name)
				case v < 0 || math.IsNaN(v):
					t.Errorf("%s = %v, want >= 0", d.name, v)
				}
			}
			parts := m["core.load_s"] + m["core.commit_s"] + m["core.unattributed_s"]
			for _, st := range stageNames {
				parts += m["core."+st+"_s"]
			}
			if total := m["trace.assembly_s"]; total <= 0 || math.Abs(parts-total) > 1e-9*total {
				t.Errorf("load + stages + commit + unattributed = %v, trace.assembly_s = %v", parts, total)
			}
			if rep.trace == nil && rep.jobTrace == nil {
				t.Error("traced run kept no trace")
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code's metric tables in
// step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, workloadNames())
	}
	for _, tc := range []struct {
		kind string
		json []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", tc.kind, len(tc.json), len(tc.code))
			continue
		}
		for i, d := range tc.code {
			if tc.json[i].Name != d.name || tc.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", tc.kind, i,
					tc.json[i].Name, tc.json[i].Unit, d.name, d.unit)
			}
		}
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
