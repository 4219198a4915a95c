package rng

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 identical draws", same)
	}
}

func TestReseed(t *testing.T) {
	a := New(7)
	first := make([]uint64, 64)
	for i := range first {
		first[i] = a.Uint64()
	}
	a.Seed(7)
	for i := range first {
		if got := a.Uint64(); got != first[i] {
			t.Fatalf("reseed did not reset state at draw %d", i)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(99)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnUniform(t *testing.T) {
	// Chi-square test over 16 buckets; threshold is the 0.999 quantile of
	// chi2 with 15 dof (~37.7), generous against flakes.
	r := New(42)
	const buckets, draws = 16, 160000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 37.7 {
		t.Fatalf("chi-square %v too large; counts %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	mean := sum / 100000
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(3)
	f := func(n uint8) bool {
		m := int(n%64) + 1
		p := r.Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(11)
	const n, draws = 5, 50000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	expected := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Fatalf("Perm first element %d count %d deviates from %v", i, c, expected)
		}
	}
}

func TestShuffle(t *testing.T) {
	r := New(13)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	Shuffle(r, xs)
	seen := make(map[int]bool)
	for _, v := range xs {
		if seen[v] {
			t.Fatalf("shuffle duplicated %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

// refShuffle is the one-draw-then-one-swap Fisher–Yates loop that
// Shuffle's block-drawn version must reproduce exactly.
func refShuffle[T any](r *Rand, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// checkShuffleMatchesReference shuffles 0..n-1 with Shuffle and with
// refShuffle from the same seed and requires equal output and equal
// generator state afterwards.
func checkShuffleMatchesReference[T int32 | int64](t *testing.T, n int) {
	t.Helper()
	got, want := make([]T, n), make([]T, n)
	for i := range got {
		got[i], want[i] = T(i), T(i)
	}
	rg, rw := New(uint64(n)+7), New(uint64(n)+7)
	Shuffle(rg, got)
	refShuffle(rw, want)
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d: Shuffle order differs from the reference Fisher–Yates", n)
	}
	if *rg != *rw {
		t.Fatalf("n=%d: rng state after Shuffle differs from the reference", n)
	}
}

func TestShuffleMatchesFisherYates(t *testing.T) {
	for _, n := range []int{0, 1, 2, 255, 256, 257, 513, 100_000} {
		checkShuffleMatchesReference[int32](t, n)
		checkShuffleMatchesReference[int64](t, n)
	}
}

func TestJumpDisjoint(t *testing.T) {
	// After a jump the stream should not collide with the pre-jump stream
	// over a modest window.
	a := New(77)
	b := a.Clone()
	b.Jump()
	aVals := make(map[uint64]bool, 4096)
	for i := 0; i < 4096; i++ {
		aVals[a.Uint64()] = true
	}
	collisions := 0
	for i := 0; i < 4096; i++ {
		if aVals[b.Uint64()] {
			collisions++
		}
	}
	if collisions > 1 {
		t.Fatalf("jumped stream collided %d times with base stream", collisions)
	}
}

func TestCloneProducesSameSequence(t *testing.T) {
	a := New(123)
	a.Uint64()
	b := a.Clone()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("clone diverged at draw %d", i)
		}
	}
}

func TestStreamsIndependent(t *testing.T) {
	ss := Streams(2024, 4)
	if len(ss) != 4 {
		t.Fatalf("expected 4 streams, got %d", len(ss))
	}
	seen := make(map[uint64]int)
	for si, s := range ss {
		for i := 0; i < 1000; i++ {
			v := s.Uint64()
			if prev, ok := seen[v]; ok {
				t.Fatalf("streams %d and %d collided on value %x", prev, si, v)
			}
			seen[v] = si
		}
	}
}

func TestNewStreamDiffers(t *testing.T) {
	parent := New(55)
	c1 := parent.NewStream()
	c2 := parent.NewStream()
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling streams matched on %d/1000 draws", same)
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(31)
	trues := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bool() {
			trues++
		}
	}
	if math.Abs(float64(trues)-draws/2) > 4*math.Sqrt(draws/4) {
		t.Fatalf("Bool heavily biased: %d/%d", trues, draws)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000003)
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}

// BenchmarkShuffle shuffles 2^25 int32s, the size of the stub array of a
// regular:8 graph at n = 2^22.
func BenchmarkShuffle(b *testing.B) {
	s := make([]int32, 1<<25)
	for i := range s {
		s[i] = int32(i)
	}
	r := New(1)
	b.SetBytes(int64(4 * len(s)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Shuffle(r, s)
	}
}
