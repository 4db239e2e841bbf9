package bitvec

import (
	"math/bits"
	"math/rand"
	"testing"
)

// naiveSelectInWord finds the rank-th set bit of w by scanning.
func naiveSelectInWord(w uint64, rank int) int {
	for p := 0; p < 64; p++ {
		if w&(1<<p) != 0 {
			if rank == 0 {
				return p
			}
			rank--
		}
	}
	return -1
}

// TestSelectInWordMatchesNaiveScan checks the broadword in-word select
// on every rank of random words of varied density and of the words
// whose byte counts sit at the edges of the cumulative-count trick:
// all ones, one bit, one full byte, alternating bits.
func TestSelectInWordMatchesNaiveScan(t *testing.T) {
	words := []uint64{
		^uint64(0), 1, 1 << 63, 0xff, 0xff << 56, 0x8000000000000001,
		0x5555555555555555, 0xaaaaaaaaaaaaaaaa, 0x0101010101010101, 0x8080808080808080,
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		w := rng.Uint64()
		switch i % 4 {
		case 1:
			w &= rng.Uint64() & rng.Uint64() // sparse
		case 2:
			w |= rng.Uint64() | rng.Uint64() // dense
		}
		words = append(words, w)
	}
	for _, w := range words {
		for r := 0; r < bits.OnesCount64(w); r++ {
			if got, want := selectInWord(w, uint(r)), naiveSelectInWord(w, r); got != want {
				t.Fatalf("selectInWord(%#x, %d) = %d, want %d", w, r, got, want)
			}
		}
	}
}

// selectShapes are bit vectors built to stress Select1's superblock
// search and word scan: the set bits it must find sit in all-ones words,
// after long runs of empty words, on both sides of superblock
// boundaries, only at the front or the back (so the interpolated first
// guess is far off), and at the very last bit.
func selectShapes() map[string]*Vector {
	shapes := map[string]*Vector{}
	add := func(name string, n int, set func(i int) bool) {
		v := New(n)
		for i := 0; i < n; i++ {
			if set(i) {
				v.Set(uint32(i))
			}
		}
		shapes[name] = v
	}
	add("n=1", 1, func(int) bool { return true })
	add("all-ones", 4096+17, func(int) bool { return true })
	add("empty-runs", 64*100, func(i int) bool { return (i/64)%23 == 0 && i%3 == 0 })
	add("superblock-edges", 512*9+3, func(i int) bool {
		m := i % 512
		return m == 0 || m == 511 || m == 63 || m == 64
	})
	add("front-loaded", 512*40, func(i int) bool { return i < 700 })
	add("back-loaded", 512*40, func(i int) bool { return i >= 512*40-700 })
	add("last-bit-only", 512*7+1, func(i int) bool { return i == 512*7 })
	add("full-then-empty-words", 64*40, func(i int) bool { return (i/64)%2 == 0 })
	return shapes
}

// TestSelect1Shapes pins Select1 against the naive scan on every set bit
// of each adversarial shape.
func TestSelect1Shapes(t *testing.T) {
	for name, v := range selectShapes() {
		r := NewRankIndex(v)
		for k := 0; k < r.Ones(); k++ {
			got, err := r.Select1(k)
			if err != nil {
				t.Fatalf("%s: Select1(%d): %v", name, k, err)
			}
			if want := naiveSelect(v, k); got != want {
				t.Fatalf("%s: Select1(%d) = %d, want %d", name, k, got, want)
			}
		}
		for _, k := range []int{-1, r.Ones(), r.Ones() + 1} {
			if _, err := r.Select1(k); err == nil {
				t.Errorf("%s: Select1(%d) should error", name, k)
			}
		}
	}
}

// buildEF seals vals (non-decreasing, at most universe) into an EliasFano.
func buildEF(t *testing.T, vals []uint64, universe uint64) *EliasFano {
	t.Helper()
	b, err := NewEliasFanoBuilder(len(vals), universe)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if err := b.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	ef, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ef
}

// efShapes are monotone sequences whose high bits hit the cursor's edge
// cases: repeated values (consecutive ones, all-ones high words), huge
// gaps (runs of empty high words), a single value, a zero universe, and
// a dense prefix that crosses several superblocks.
func efShapes() map[string][]uint64 {
	rng := rand.New(rand.NewSource(8))
	shapes := map[string][]uint64{
		"n=1":          {7},
		"n=1-zero":     {0},
		"n=2":          {3, 1 << 20},
		"all-equal":    make([]uint64, 300),
		"huge-gaps":    {0, 0, 1 << 30, 1<<30 + 1, 1 << 40, 1 << 40, 1<<40 + 5},
		"steps-of-one": nil,
		"random":       nil,
	}
	for i := 0; i < 2000; i++ {
		shapes["steps-of-one"] = append(shapes["steps-of-one"], uint64(i))
	}
	var cur uint64
	for i := 0; i < 3000; i++ {
		if rng.Intn(50) == 0 {
			cur += uint64(rng.Intn(1 << 16)) // an occasional long jump
		} else {
			cur += uint64(rng.Intn(4))
		}
		shapes["random"] = append(shapes["random"], cur)
	}
	return shapes
}

// TestEliasFanoCursorAndPair checks the select-once reads against the
// plain values: GetPair at every index, and a Cursor opened at every
// index and read to the end.
func TestEliasFanoCursorAndPair(t *testing.T) {
	for name, vals := range efShapes() {
		universe := uint64(0)
		if len(vals) > 0 {
			universe = vals[len(vals)-1]
		}
		ef := buildEF(t, vals, universe)
		for i := 0; i+1 < len(vals); i++ {
			a, b, err := ef.GetPair(i)
			if err != nil {
				t.Fatalf("%s: GetPair(%d): %v", name, i, err)
			}
			if a != vals[i] || b != vals[i+1] {
				t.Fatalf("%s: GetPair(%d) = %d, %d, want %d, %d", name, i, a, b, vals[i], vals[i+1])
			}
		}
		step := 1
		if len(vals) > 200 {
			step = len(vals) / 97 // every start would be quadratic
		}
		for start := 0; start <= len(vals); start += step {
			c, err := ef.Cursor(start)
			if err != nil {
				t.Fatalf("%s: Cursor(%d): %v", name, start, err)
			}
			for i := start; i < len(vals); i++ {
				got, err := c.Next()
				if err != nil {
					t.Fatalf("%s: cursor from %d, Next at %d: %v", name, start, i, err)
				}
				if got != vals[i] {
					t.Fatalf("%s: cursor from %d, value %d = %d, want %d", name, start, i, got, vals[i])
				}
			}
			if _, err := c.Next(); err == nil {
				t.Fatalf("%s: cursor from %d read past the last index without error", name, start)
			}
		}
	}
}

// TestEliasFanoReadsOutOfRange pins that every out-of-range select-once
// read returns an error — no panic — including on an empty sequence and
// on a zero Cursor.
func TestEliasFanoReadsOutOfRange(t *testing.T) {
	empty := buildEF(t, nil, 0)
	one := buildEF(t, []uint64{5}, 9)
	three := buildEF(t, []uint64{1, 4, 9}, 9)
	for _, c := range []struct {
		name string
		ef   *EliasFano
		i    int
	}{
		{"empty", empty, 0}, {"one", one, 0}, {"three-last", three, 2},
		{"three-past", three, 3}, {"negative", three, -1},
	} {
		if _, _, err := c.ef.GetPair(c.i); err == nil {
			t.Errorf("%s: GetPair(%d) should error", c.name, c.i)
		}
	}
	for _, c := range []struct {
		name string
		ef   *EliasFano
		i    int
	}{
		{"empty-past", empty, 1}, {"three-past", three, 4}, {"negative", three, -1},
	} {
		if _, err := c.ef.Cursor(c.i); err == nil {
			t.Errorf("%s: Cursor(%d) should error", c.name, c.i)
		}
	}
	for _, ef := range []*EliasFano{empty, three} {
		c, err := ef.Cursor(ef.Len())
		if err != nil {
			t.Fatalf("Cursor(Len()) = %v, want an exhausted cursor", err)
		}
		if _, err := c.Next(); err == nil {
			t.Error("Next on an exhausted cursor should error")
		}
	}
	var zero Cursor
	if _, err := zero.Next(); err == nil {
		t.Error("Next on a zero Cursor should error")
	}
}
