package dist

import (
	"fmt"
	"testing"

	"plurality/internal/rng"
)

// TestFillUniformMatchesInt63n pins the exact kernel's contract: for any n,
// FillUniform produces the same values AND leaves the generator in the same
// state as sequential Int63n calls — the property that makes batching
// invisible to the golden traces. The n values cover the shift fast path
// (1, powers of two), small odd degrees, and huge n where Lemire's
// rejection actually fires (2⁶²+1 rejects about a quarter of the raws).
// The lengths straddle the kernel's 256-raw block: a block never draws
// more raws than slots still to fill, so a rejection near a block's end
// must carry into the next block without over-drawing.
func TestFillUniformMatchesInt63n(t *testing.T) {
	ns := []int64{1, 2, 3, 6, 8, 1000, 1 << 20, (1 << 61) + 1, (1 << 62) + 1, 3 << 61}
	for _, n := range ns {
		for _, length := range []int{0, 1, 255, 256, 257, 513, 1000} {
			r1, r2 := rng.New(99), rng.New(99)
			got := make([]int64, length)
			FillUniform(r1, n, got)
			for i, v := range got {
				want := r2.Int63n(n)
				if v != want {
					t.Fatalf("n=%d len=%d: dst[%d] = %d, want Int63n's %d", n, length, i, v, want)
				}
				if v < 0 || v >= n {
					t.Fatalf("n=%d len=%d: dst[%d] = %d out of range", n, length, i, v)
				}
			}
			if *r1 != *r2 {
				t.Errorf("n=%d len=%d: generator state diverged from sequential Int63n", n, length)
			}
		}
	}
}

func TestFillUniformPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FillUniform(0) did not panic")
		}
	}()
	FillUniform(rng.New(1), 0, make([]int64, 4))
}

// TestFillUniformUniformity is a coarse GOF guard on the kernel: over a
// small modulus every residue class should be hit roughly equally.
func TestFillUniformUniformity(t *testing.T) {
	const n, draws = 7, 70_000
	dst := make([]int64, draws)
	FillUniform(rng.New(5), n, dst)
	var counts [n]float64
	for _, v := range dst {
		counts[v]++
	}
	exp := float64(draws) / n
	var chi2 float64
	for _, c := range counts {
		d := c - exp
		chi2 += d * d / exp
	}
	// df=6, α≈0.001 critical value 22.46.
	if chi2 > 22.46 {
		t.Errorf("χ² = %.1f over %d classes (want < 22.46)", chi2, n)
	}
}

// BenchmarkFillUniform times the exact kernel over 2¹⁶ slots on the
// engine's two paths: d=8 takes the power-of-two shift path, d=6 the
// Lemire rejection path. Reported per slot.
func BenchmarkFillUniform(b *testing.B) {
	for _, d := range []int64{8, 6} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			r := rng.New(1)
			dst := make([]int64, 1<<16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FillUniform(r, d, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(dst)), "ns/slot")
		})
	}
}
