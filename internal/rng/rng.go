// Package rng provides a fast, deterministic pseudo-random number generator
// for the simulation engines.
//
// The generator is xoshiro256++ (Blackman & Vigna), seeded through splitmix64
// so that any 64-bit seed yields a well-mixed initial state. Every source of
// randomness in this repository flows through an explicit *Rand value — there
// is no global generator — which makes every simulation and experiment
// reproducible from a single seed.
//
// Independent parallel streams are derived either with Jump (which advances
// the state by 2^128 steps, giving non-overlapping subsequences) or with
// NewStream (which derives a child seed via splitmix64). Engines that shard
// agents across workers use one stream per worker.
package rng

import "math/bits"

// Rand is a xoshiro256++ pseudo-random number generator. It is NOT safe for
// concurrent use; derive one Rand per goroutine via Jump or NewStream.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances x and returns a well-mixed 64-bit value. It is the
// recommended seeding procedure for the xoshiro family.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed. Different seeds
// yield independent-looking sequences; the same seed always yields the same
// sequence.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from a 64-bit seed.
func (r *Rand) Seed(seed uint64) {
	x := seed
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	r.s2 = splitmix64(&x)
	r.s3 = splitmix64(&x)
	// A state of all zeros is invalid for xoshiro; splitmix64 cannot produce
	// four zero outputs in a row, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next value of the xoshiro256++ sequence.
func (r *Rand) Uint64() uint64 {
	result := bits.RotateLeft64(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Uint64Block fills dst with consecutive outputs of the sequence,
// byte-identical to len(dst) sequential Uint64 calls. The state lives in
// locals across the loop so the compiler keeps it in registers instead of
// re-loading the receiver per draw. dist.FillUniform draws its raws
// through it, so the graph engine's batched sparse loops get the block
// speed under the exact per-draw byte contract.
func (r *Rand) Uint64Block(dst []uint64) {
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	for i := range dst {
		result := bits.RotateLeft64(s0+s3, 23) + s0
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		dst[i] = result
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}

// Uint32 returns a uniformly distributed 32-bit value.
func (r *Rand) Uint32() uint32 {
	return uint32(r.Uint64() >> 32)
}

// Int63 returns a non-negative int64 uniform on [0, 2^63).
func (r *Rand) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift bounded generation with rejection,
// which is exact (unbiased) and avoids the modulo operation on the
// fast path.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with n <= 0")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Lemire's method: multiply a 64-bit random value by n and keep the high
	// word; reject the small biased region of the low word.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (r *Rand) Bool() bool {
	return r.Uint64()&1 == 1
}

// Perm returns a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// shuffleBlock is how many swap indices Shuffle draws before it swaps.
const shuffleBlock = 256

// Shuffle pseudo-randomizes the order of s (Fisher–Yates: for i from
// len(s)-1 down to 1, swap s[i] with s[Intn(i+1)]). The draws do not depend
// on the slice contents, so it draws a block of up to shuffleBlock indices
// first and then swaps; the random-access swaps of a block no longer wait
// behind the generator, and the draws, the final order and the final rng
// state equal the one-at-a-time loop's.
func Shuffle[T any](r *Rand, s []T) {
	var js [shuffleBlock]uint64
	for i := len(s) - 1; i > 0; {
		m := min(i, shuffleBlock)
		for k := range m {
			js[k] = r.Uint64n(uint64(i - k + 1))
		}
		for k := range m {
			j := js[k]
			s[i-k], s[j] = s[j], s[i-k]
		}
		i -= m
	}
}

// NewStream derives an independent child generator from this one. The child
// is seeded from fresh output of the parent, so distinct calls produce
// distinct streams. Use this to hand one generator to each worker goroutine.
func (r *Rand) NewStream() *Rand {
	return New(r.Uint64())
}

// jumpPoly is the xoshiro256 jump polynomial; Jump advances the state by
// 2^128 steps of the underlying sequence.
var jumpPoly = [4]uint64{
	0x180ec6d33cfd0aba, 0xd5a61266f0c9392c,
	0xa9582618e03fc9aa, 0x39abdc4529b1661c,
}

// Jump advances the generator by 2^128 steps, equivalent to 2^128 calls to
// Uint64. It can be used to generate 2^128 non-overlapping subsequences for
// parallel computations: clone the state, Jump the clone, repeat.
func (r *Rand) Jump() {
	var t0, t1, t2, t3 uint64
	for _, jp := range jumpPoly {
		for b := 0; b < 64; b++ {
			if jp&(1<<uint(b)) != 0 {
				t0 ^= r.s0
				t1 ^= r.s1
				t2 ^= r.s2
				t3 ^= r.s3
			}
			r.Uint64()
		}
	}
	r.s0, r.s1, r.s2, r.s3 = t0, t1, t2, t3
}

// Clone returns a copy of the generator with identical state. The copy and
// the original produce the same subsequent sequence; typically the copy is
// Jumped immediately to obtain a disjoint stream.
func (r *Rand) Clone() *Rand {
	c := *r
	return &c
}

// Streams returns n independent generators derived from seed using the jump
// construction: stream i has the state of a seed-initialized generator
// advanced by i*2^128 steps. The streams are mutually non-overlapping for any
// realistic draw count.
func Streams(seed uint64, n int) []*Rand {
	out := make([]*Rand, n)
	base := New(seed)
	for i := 0; i < n; i++ {
		out[i] = base.Clone()
		base.Jump()
	}
	return out
}
