package bitvec

import (
	"fmt"
	"math/bits"
)

// EliasFano is a quasi-succinct encoding of a monotone non-decreasing
// sequence of n values in [0, universe] (Elias 1974; Vigna's
// quasi-succinct indices). Each value is split into l = log2(u/n) low
// bits, stored verbatim in a packed array, and a high part coded in
// unary in a bitvector of n + (u >> l) + 1 bits. Total space is about
// n*(2 + log2(u/n)) bits — far below the 64n of a plain offset array.
// Get costs one Select1 on the high bits (a search of the rank
// directory's superblock counts, then an in-word select); a Cursor reads
// consecutive values with one select and then a forward scan.
//
// The succinct graph store uses two of these: one for per-vertex edge
// offsets (rowPtr) and one for per-vertex byte offsets into the
// delta-coded adjacency stream.
type EliasFano struct {
	n        int
	universe uint64
	l        uint
	low      []uint64 // packed l-bit low parts
	high     *Vector  // unary-coded high parts
	rank     *RankIndex
}

// EliasFanoBuilder accumulates a monotone sequence with a known length
// and universe bound, then seals it into an EliasFano.
type EliasFanoBuilder struct {
	ef   *EliasFano
	next int
	prev uint64
}

// NewEliasFanoBuilder prepares storage for n values, each at most
// universe, appended in non-decreasing order.
func NewEliasFanoBuilder(n int, universe uint64) (*EliasFanoBuilder, error) {
	if n < 0 {
		return nil, fmt.Errorf("bitvec: negative eliasfano length %d", n)
	}
	var l uint
	if n > 0 && universe > uint64(n) {
		l = uint(bits.Len64(universe/uint64(n)) - 1)
	}
	highBits := 1
	if n > 0 {
		highBits = n + int(universe>>l) + 1
	}
	ef := &EliasFano{
		n:        n,
		universe: universe,
		l:        l,
		low:      make([]uint64, (int(l)*n+63)/64+1),
		high:     New(highBits),
	}
	return &EliasFanoBuilder{ef: ef}, nil
}

// Append adds the next value. Values must be non-decreasing and within
// the declared universe.
func (b *EliasFanoBuilder) Append(v uint64) error {
	ef := b.ef
	if b.next >= ef.n {
		return fmt.Errorf("bitvec: eliasfano overflow: %d values declared", ef.n)
	}
	if v > ef.universe {
		return fmt.Errorf("bitvec: eliasfano value %d exceeds universe %d", v, ef.universe)
	}
	if v < b.prev {
		return fmt.Errorf("bitvec: eliasfano sequence not monotone: %d after %d", v, b.prev)
	}
	if ef.l > 0 {
		lowVal := v & ((1 << ef.l) - 1)
		pos := uint(b.next) * ef.l
		w, off := pos>>6, pos&63
		ef.low[w] |= lowVal << off
		if off+ef.l > 64 {
			ef.low[w+1] |= lowVal >> (64 - off)
		}
	}
	if err := ef.high.Set(uint32((v >> ef.l) + uint64(b.next))); err != nil {
		return fmt.Errorf("bitvec: eliasfano high bits: %w", err)
	}
	b.prev = v
	b.next++
	return nil
}

// Build seals the sequence. All n declared values must have been
// appended.
func (b *EliasFanoBuilder) Build() (*EliasFano, error) {
	if b.next != b.ef.n {
		return nil, fmt.Errorf("bitvec: eliasfano short build: %d of %d values", b.next, b.ef.n)
	}
	b.ef.rank = NewRankIndex(b.ef.high)
	return b.ef, nil
}

// Len returns the number of values in the sequence.
func (ef *EliasFano) Len() int { return ef.n }

// Get returns the i-th value.
func (ef *EliasFano) Get(i int) (uint64, error) {
	if i < 0 || i >= ef.n {
		return 0, fmt.Errorf("bitvec: eliasfano index %d out of range [0, %d)", i, ef.n)
	}
	p, err := ef.rank.Select1(i)
	if err != nil {
		return 0, err
	}
	return ef.value(i, p), nil
}

// value assembles the i-th value from the position p of its one in the
// high bits and its packed low bits.
func (ef *EliasFano) value(i, p int) uint64 {
	v := uint64(p-i) << ef.l
	if ef.l > 0 {
		pos := uint(i) * ef.l
		w, off := pos>>6, pos&63
		lowVal := ef.low[w] >> off
		if off+ef.l > 64 {
			lowVal |= ef.low[w+1] << (64 - off)
		}
		v |= lowVal & ((1 << ef.l) - 1)
	}
	return v
}

// GetPair returns the i-th and (i+1)-th values with a single select: the
// second value's one is the next set bit after the first's.
func (ef *EliasFano) GetPair(i int) (uint64, uint64, error) {
	if i < 0 || i+1 >= ef.n {
		return 0, 0, fmt.Errorf("bitvec: eliasfano pair index %d out of range [0, %d)", i, ef.n-1)
	}
	c, err := ef.Cursor(i)
	if err != nil {
		return 0, 0, err
	}
	a, err := c.Next()
	if err != nil {
		return 0, 0, err
	}
	b, err := c.Next()
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}

// Cursor reads an EliasFano sequence front to back from some index: one
// select positions it, and each Next then finds the following one in the
// high bits by a forward word scan. A zero Cursor is exhausted.
type Cursor struct {
	ef   *EliasFano
	i    int    // index of the value Next returns
	w    int    // high-bits word holding that value's one
	word uint64 // word w with the ones of values before i cleared
}

// Cursor returns a cursor whose first Next yields the i-th value. i may
// equal Len(), giving an exhausted cursor.
func (ef *EliasFano) Cursor(i int) (Cursor, error) {
	if i < 0 || i > ef.n {
		return Cursor{}, fmt.Errorf("bitvec: eliasfano cursor index %d out of range [0, %d]", i, ef.n)
	}
	if i == ef.n {
		return Cursor{ef: ef, i: i}, nil
	}
	p, err := ef.rank.Select1(i)
	if err != nil {
		return Cursor{}, err
	}
	w := p >> 6
	return Cursor{ef: ef, i: i, w: w, word: ef.high.words[w] &^ (1<<uint(p&63) - 1)}, nil
}

// Next returns the cursor's value and advances it. Reading past the end
// of the sequence is an error.
func (c *Cursor) Next() (uint64, error) {
	ef := c.ef
	if ef == nil || c.i >= ef.n {
		return 0, fmt.Errorf("bitvec: eliasfano cursor exhausted")
	}
	for c.word == 0 {
		c.w++
		if c.w >= len(ef.high.words) {
			return 0, fmt.Errorf("bitvec: eliasfano high bits end before value %d", c.i)
		}
		c.word = ef.high.words[c.w]
	}
	p := c.w<<6 + bits.TrailingZeros64(c.word)
	c.word &= c.word - 1
	v := ef.value(c.i, p)
	c.i++
	return v, nil
}

// Bytes returns the in-memory size of the encoded sequence including
// its rank directory.
func (ef *EliasFano) Bytes() int64 {
	b := 8 * int64(len(ef.low))
	b += ef.high.Bytes()
	if ef.rank != nil {
		b += ef.rank.Bytes()
	}
	return b
}
