package contig

import (
	"fmt"
	"os"

	"repro/internal/dna"
	"repro/internal/fastq"
)

// WriteFASTA writes contigs to path as the compress stage's FASTA output
// (headers "contig<i> len=<n>", 80-column sequence lines) and returns the
// number of bases written, for callers that meter the disk write.
func WriteFASTA(path string, contigs []dna.Seq) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := fastq.NewFastaWriter(f, 80)
	var written int64
	for i, c := range contigs {
		if err := w.Write(fastq.Record{Name: fmt.Sprintf("contig%d len=%d", i, len(c)), Seq: c}); err != nil {
			f.Close()
			return written, err
		}
		written += int64(len(c))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return written, err
	}
	return written, f.Close()
}

// LoadFASTA reads contig sequences back from a FASTA file previously
// written by WriteFASTA. Resumed runs use it to restore Result.Contigs
// from the committed artifact without re-running traversal; Summarize
// over the returned slice reproduces the original run's statistics.
func LoadFASTA(path string) ([]dna.Seq, error) {
	rs, _, err := fastq.ReadFile(path)
	if err != nil {
		return nil, err
	}
	contigs := make([]dna.Seq, rs.NumReads())
	for i := range contigs {
		contigs[i] = rs.Read(uint32(i))
	}
	return contigs, nil
}
