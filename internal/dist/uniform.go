package dist

import (
	"math/bits"

	"plurality/internal/rng"
)

// uniformBlock is how many raw Uint64s FillUniform draws per
// rng.Uint64Block call.
const uniformBlock = 256

// FillUniform fills dst with independent uniform draws from [0, n),
// consuming the rng exactly as len(dst) sequential r.Int63n(n) calls would —
// the output values and the generator's end state are byte-identical for
// any seed, which is what lets the graph engine's batched sparse loops use
// it without perturbing a golden trace. It is allocation-free.
//
// The raws come in blocks of at most uniformBlock from rng.Uint64Block,
// which keeps the generator state in registers across the block. A block
// never holds more raws than slots still to fill: every raw Int63n would
// draw for those slots is consumed in order, accepted or rejected, so no
// raw is drawn that the sequential calls would not have drawn. Powers of
// two take a branch-free shift path (Lemire's rejection region is empty
// there, so the shift is exactly Int63n). Panics if n <= 0.
func FillUniform(r *rng.Rand, n int64, dst []int64) {
	if n <= 0 {
		panic("dist: FillUniform called with n <= 0")
	}
	un := uint64(n)
	var raw [uniformBlock]uint64
	if un&(un-1) == 0 {
		// n = 2^k: Int63n reduces to taking the top k bits (the rejection
		// threshold -n % n is zero, so the redraw loop can never run).
		// n = 1 has shift 64, which Go defines to yield 0 — one draw, index
		// 0, exactly like Int63n(1).
		shift := uint(bits.LeadingZeros64(un)) + 1
		for len(dst) > 0 {
			m := min(len(dst), uniformBlock)
			r.Uint64Block(raw[:m])
			for i, x := range raw[:m] {
				dst[i] = int64(x >> shift)
			}
			dst = dst[m:]
		}
		return
	}
	// General n: Lemire multiply-shift with rejection, the exact loop from
	// rng.Uint64n with the threshold hoisted (thresh < n, so the single
	// `lo < thresh` test subsumes Uint64n's `lo < n` pre-test without
	// changing which draws are rejected). A rejected raw fills no slot, so
	// the next block is sized to the slots still empty.
	thresh := -un % un
	for p := 0; p < len(dst); {
		m := min(len(dst)-p, uniformBlock)
		r.Uint64Block(raw[:m])
		for _, x := range raw[:m] {
			hi, lo := bits.Mul64(x, un)
			if lo >= thresh {
				dst[p] = int64(hi)
				p++
			}
		}
	}
}
