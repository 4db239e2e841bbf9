package bitvec

import (
	"fmt"
	"math/bits"
)

// RankIndex is a rank9-style rank/select directory over a Vector
// (Vigna, "Broadword Implementation of Rank/Select Queries"). The
// vector is divided into superblocks of 8 words (512 bits); for each
// superblock the index stores the absolute number of set bits before
// it, plus seven 9-bit relative counts (one per interior word) packed
// into a single uint64. Space overhead is 2 words per 8 payload words
// (25%). Rank1 touches one superblock; Select1 searches the superblock
// counts (see Select1), then touches one superblock and one word.
//
// The index is a snapshot: mutating the underlying Vector after
// NewRankIndex invalidates it.
type RankIndex struct {
	v    *Vector
	abs  []uint64 // per superblock: set bits strictly before it
	rel  []uint64 // per superblock: packed 9-bit cumulative word counts
	ones int
}

// NewRankIndex builds the directory in one pass over the vector.
func NewRankIndex(v *Vector) *RankIndex {
	nsb := (len(v.words) + 7) / 8
	r := &RankIndex{
		v:   v,
		abs: make([]uint64, nsb+1),
		rel: make([]uint64, nsb),
	}
	total := uint64(0)
	for sb := 0; sb < nsb; sb++ {
		r.abs[sb] = total
		within := uint64(0)
		for j := 0; j < 8; j++ {
			w := sb*8 + j
			if j > 0 {
				r.rel[sb] |= (within & 0x1ff) << (9 * (j - 1))
			}
			if w < len(v.words) {
				within += uint64(bits.OnesCount64(v.words[w]))
			}
		}
		total += within
	}
	r.abs[nsb] = total
	r.ones = int(total)
	return r
}

// Ones returns the total number of set bits.
func (r *RankIndex) Ones() int { return r.ones }

// relCount returns the number of set bits in words [8*sb, 8*sb+j).
func (r *RankIndex) relCount(sb, j int) uint64 {
	if j == 0 {
		return 0
	}
	return (r.rel[sb] >> (9 * (j - 1))) & 0x1ff
}

// Rank1 returns the number of set bits in positions [0, i). i may equal
// Len(), giving the total population count.
func (r *RankIndex) Rank1(i int) (int, error) {
	if i < 0 || i > r.v.n {
		return 0, fmt.Errorf("bitvec: rank index %d out of range [0, %d]", i, r.v.n)
	}
	w := i >> 6
	sb := w >> 3
	count := r.abs[sb] + r.relCount(sb, w&7)
	if w < len(r.v.words) {
		if low := uint(i & 63); low != 0 {
			count += uint64(bits.OnesCount64(r.v.words[w] << (64 - low)))
		}
	}
	return int(count), nil
}

// Select1 returns the position of the k-th set bit (0-based), i.e. the
// smallest p with Rank1(p+1) == k+1. It locates the superblock by a
// galloping search of the superblock counts that starts at the one
// interpolation predicts (O(1) probes when the set bits are spread
// evenly, as in Elias–Fano high bits; O(log(n/512)) at worst), scans
// that superblock's seven packed word counts, and finishes with a
// branch-free in-word select.
func (r *RankIndex) Select1(k int) (int, error) {
	if k < 0 || k >= r.ones {
		return 0, fmt.Errorf("bitvec: select index %d out of range [0, %d)", k, r.ones)
	}
	sb := r.superblockOf(uint64(k))
	rem := uint64(k) - r.abs[sb]
	// Scan the packed relative counts for the word.
	j := 0
	for j < 7 && r.relCount(sb, j+1) <= rem {
		j++
	}
	rem -= r.relCount(sb, j)
	w := sb*8 + j
	if w >= len(r.v.words) || rem >= uint64(bits.OnesCount64(r.v.words[w])) {
		return 0, fmt.Errorf("bitvec: select directory corrupt at bit %d", k)
	}
	return w<<6 + selectInWord(r.v.words[w], uint(rem)), nil
}

// superblockOf returns the superblock holding the k-th set bit, the last
// sb with abs[sb] <= k, for k < Ones().
func (r *RankIndex) superblockOf(k uint64) int {
	nsb := len(r.abs) - 1 // abs[nsb] is the total, which exceeds k
	guess := int(k * uint64(nsb) / uint64(r.ones))
	// Gallop away from the guess until [lo, hi) brackets the answer:
	// abs[lo] <= k < abs[hi].
	var lo, hi int
	if r.abs[guess] <= k {
		lo, hi = guess, guess+1
		for step := 1; hi < nsb && r.abs[hi] <= k; step <<= 1 {
			lo, hi = hi, hi+step
		}
		hi = min(hi, nsb)
	} else {
		lo, hi = guess-1, guess
		for step := 1; lo > 0 && r.abs[lo] > k; step <<= 1 {
			lo, hi = lo-step, lo
		}
		lo = max(lo, 0)
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.abs[mid] <= k {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Broadword constants: the low and the high bit of every byte.
const (
	bytesL8 = 0x0101010101010101
	bytesH8 = 0x8080808080808080
)

// selectInWord returns the bit position of the rank-th (0-based) set bit
// of w; the caller guarantees rank < popcount(w). Byte popcounts are
// summed into cumulative per-byte counts with one multiply, the target
// byte is found by a parallel compare against rank (Vigna, "Broadword
// Implementation of Rank/Select Queries", §5), and the byte is finished
// by clearing its lowest set bits.
func selectInWord(w uint64, rank uint) int {
	s := w - (w>>1)&0x5555555555555555
	s = s&0x3333333333333333 + (s>>2)&0x3333333333333333
	s = (s + s>>4) & 0x0f0f0f0f0f0f0f0f
	s *= bytesL8 // byte i holds the set bits in bytes 0..i (at most 64)
	// Byte i's high bit is set when rank >= that cumulative count; the
	// counts never decrease, so these bytes form a prefix whose length is
	// the index of the byte holding the target bit.
	le := ((uint64(rank)*bytesL8 | bytesH8) - s) & bytesH8
	place := uint(bits.OnesCount64(le)) * 8
	rank -= uint((s << 8 >> place) & 0xff)
	b := uint8(w >> place)
	for ; rank > 0; rank-- {
		b &= b - 1
	}
	return int(place) + bits.TrailingZeros8(b)
}

// Bytes returns the in-memory size of the directory (excluding the
// underlying vector payload).
func (r *RankIndex) Bytes() int64 {
	return 8 * int64(len(r.abs)+len(r.rel))
}
