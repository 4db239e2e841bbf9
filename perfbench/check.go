package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"index/suffixarray"
	"sort"

	"repro/internal/contig"
	"repro/internal/dna"
	"repro/internal/fastq"
)

// aligner places contigs on the genome they were assembled from by exact
// search in a suffix array. It reproduces the exact-contig and
// covered-base counts of quality.Evaluate (first forward hit, else the
// first forward hit of the reverse-complemented contig) in O(m log n) per
// contig instead of a scan of the whole genome, which on the string-graph
// output would cost more than the assembly itself.
type aligner struct {
	index     *suffixarray.Index
	genomeLen int
}

func newAligner(genome dna.Seq) *aligner {
	return &aligner{index: suffixarray.New([]byte(genome.String())), genomeLen: len(genome)}
}

// forwardSpan returns the forward-genome start of the region the contig
// covers on either strand, or -1 when it aligns nowhere exactly.
func (a *aligner) forwardSpan(c dna.Seq) int {
	if pos := firstHit(a.index.Lookup([]byte(c.String()), -1)); pos >= 0 {
		return pos
	}
	return firstHit(a.index.Lookup([]byte(c.ReverseComplement().String()), -1))
}

func firstHit(hits []int) int {
	if len(hits) == 0 {
		return -1
	}
	sort.Ints(hits)
	return hits[0]
}

// alignment is the quality of one contig set against its genome.
type alignment struct {
	stats        contig.Stats
	exactContigs int
	coveredBases int
	genomeLen    int
}

func (a *aligner) align(contigs []dna.Seq) alignment {
	al := alignment{stats: contig.Summarize(contigs), genomeLen: a.genomeLen}
	covered := make([]bool, a.genomeLen)
	for _, c := range contigs {
		pos := a.forwardSpan(c)
		if pos < 0 {
			continue
		}
		al.exactContigs++
		for i := pos; i < pos+len(c); i++ {
			covered[i] = true
		}
	}
	for _, c := range covered {
		if c {
			al.coveredBases++
		}
	}
	return al
}

func (al alignment) coverage() float64 {
	return float64(al.coveredBases) / float64(al.genomeLen)
}

func (al alignment) basesRatio() float64 {
	return float64(al.stats.TotalBases) / float64(al.genomeLen)
}

// attempt is one assembly the benchmark tried: a direct pipeline run or
// one service job. Attempts with the same set name assembled the same
// input with the same parameters, so their FASTA must be byte-identical.
type attempt struct {
	set   string
	err   error
	fasta []byte
	// genome is the reference the input was simulated from.
	genome *aligner
	// want, when set, is the SHA-256 the FASTA must have: the digest of a
	// direct assembly of the same input and parameters.
	want []byte
}

// verdict is the checked outcome of one attempt.
type verdict struct {
	failure string // empty when the attempt passed every check
	quality alignment
	contigs []dna.Seq
}

// checkAttempts applies every correctness check to the attempts, in
// order: the run or job must not have errored, every contig must align
// exactly to its genome, every FASTA in a set must hash alike, and a FASTA
// with a wanted digest must match it.
func checkAttempts(atts []attempt) []verdict {
	first := map[string][]byte{}
	out := make([]verdict, len(atts))
	for i, a := range atts {
		out[i].failure = checkOne(a, first, &out[i])
	}
	return out
}

func checkOne(a attempt, first map[string][]byte, v *verdict) string {
	if a.err != nil {
		return a.err.Error()
	}
	var err error
	if v.contigs, err = fastaContigs(a.fasta); err != nil {
		return fmt.Sprintf("parsing contigs: %v", err)
	}
	v.quality = a.genome.align(v.contigs)
	if miss := v.quality.stats.NumContigs - v.quality.exactContigs; miss > 0 {
		return fmt.Sprintf("%d of %d contigs do not align exactly", miss, v.quality.stats.NumContigs)
	}
	sum := sha256.Sum256(a.fasta)
	if prev, ok := first[a.set]; !ok {
		first[a.set] = sum[:]
	} else if !bytes.Equal(prev, sum[:]) {
		return "contigs.fasta differs from the first run of set " + a.set
	}
	if a.want != nil && !bytes.Equal(a.want, sum[:]) {
		return "contigs.fasta differs from a direct assembly of the same input"
	}
	return ""
}

// tally counts attempted and failed operations, keeping the first few
// failure messages for the report.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) add(failure string) {
	t.attempted++
	if failure != "" {
		t.failed++
		if len(t.failures) < 8 {
			t.failures = append(t.failures, failure)
		}
	}
}

func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// fastaContigs parses FASTA bytes into sequences.
func fastaContigs(b []byte) ([]dna.Seq, error) {
	rs, _, err := fastq.ReadAll(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	out := make([]dna.Seq, rs.NumReads())
	for i := range out {
		out[i] = rs.Read(uint32(i))
	}
	return out, nil
}
