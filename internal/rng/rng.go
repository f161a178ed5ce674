// Package rng provides a deterministic pseudo-random number generator and
// the distribution samplers used by the EEVFS workload generators.
//
// The simulator must be bit-reproducible across runs and Go releases, so we
// do not use math/rand (whose stream is not guaranteed stable across
// versions). The core generator is xoshiro256**, seeded via splitmix64,
// following the reference implementations by Blackman and Vigna.
package rng

import "math"

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given seed. Any seed value, including
// zero, produces a well-distributed state via splitmix64 expansion.
func New(seed uint64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// Seed resets the generator state deterministically from seed.
func (r *Source) Seed(seed uint64) {
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded sampling would be faster, but
	// plain rejection keeps the stream layout obvious and is already cheap.
	bound := uint64(n)
	threshold := (-bound) % bound // 2^64 mod n
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Int63n returns a uniformly distributed integer in [0, n) for int64 bounds.
func (r *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with n <= 0")
	}
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int64(v % bound)
		}
	}
}

// ExpFloat64 returns an exponentially distributed value with rate 1
// (mean 1), via inverse transform sampling.
func (r *Source) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Poisson returns a Poisson(mu) variate. For small mu it uses Knuth's
// product-of-uniforms method; for large mu it uses the PTRS transformed
// rejection method of Hörmann (1993), which is exact and O(1).
func (r *Source) Poisson(mu float64) int {
	switch {
	case mu <= 0:
		return 0
	case mu < 30:
		return r.poissonKnuth(mu)
	default:
		return r.poissonPTRS(mu)
	}
}

func (r *Source) poissonKnuth(mu float64) int {
	limit := math.Exp(-mu)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// poissonPTRS implements W. Hörmann, "The transformed rejection method for
// generating Poisson random variables", Insurance: Mathematics and
// Economics 12 (1993). Valid for mu >= 10.
func (r *Source) poissonPTRS(mu float64) int {
	smu := math.Sqrt(mu)
	b := 0.931 + 2.53*smu
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logMu := math.Log(mu)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mu + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lhs := math.Log(v * invAlpha / (a/(us*us) + b))
		rhs := k*logMu - mu - logGamma(k+1)
		if lhs <= rhs {
			return int(k)
		}
	}
}

// logGamma is a thin wrapper around math.Lgamma that discards the sign
// (the argument is always positive here).
func logGamma(x float64) float64 {
	lg, _ := math.Lgamma(x)
	return lg
}

// Zipf samples integers in [0, n) with probability proportional to
// 1/(rank+1)^s. It precomputes the CDF once, so sampling is O(log n).
type Zipf struct {
	src *Source
	cdf []float64
}

// NewZipf builds a Zipf sampler over n items with exponent s > 0.
// It panics if n <= 0 or s <= 0.
func NewZipf(src *Source, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf called with n <= 0")
	}
	if s <= 0 {
		panic("rng: NewZipf called with s <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against floating-point shortfall
	return &Zipf{src: src, cdf: cdf}
}

// N returns the number of items in the sampler's support.
func (z *Zipf) N() int { return len(z.cdf) }

// Sample draws one rank in [0, n), with rank 0 the most probable.
func (z *Zipf) Sample() int {
	u := z.src.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// PoissonPMF returns the Poisson(mu) probability mass at k, computed in log
// space for numerical stability. Used by the workload layer to rank file
// popularity exactly (not empirically).
func PoissonPMF(mu float64, k int) float64 {
	if k < 0 || mu < 0 {
		return 0
	}
	if mu == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	return math.Exp(float64(k)*math.Log(mu) - mu - logGamma(float64(k)+1))
}
