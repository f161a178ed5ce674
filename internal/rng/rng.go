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

// PoissonSampler draws Poisson(mu) variates from a Source at one fixed
// mu. For small mu it uses Knuth's product-of-uniforms method; for large
// mu the PTRS transformed rejection method of Hörmann (1993), which is
// exact and O(1). The constants of the method are computed once:
// exp(-mu) for Knuth's, and for PTRS the hat parameters.
type PoissonSampler struct {
	src *Source
	mu  float64
	// limit is Knuth's exp(-mu); b to logMu are PTRS's constants.
	limit                           float64
	b, a, twoA, invAlpha, vr, logMu float64
}

// NewPoisson returns a sampler of Poisson(mu) variates drawn from src.
func NewPoisson(src *Source, mu float64) PoissonSampler {
	p := PoissonSampler{src: src, mu: mu}
	switch {
	case mu <= 0:
	case mu < 30:
		p.limit = math.Exp(-mu)
	default:
		smu := math.Sqrt(mu)
		p.b = 0.931 + 2.53*smu
		p.a = -0.059 + 0.02483*p.b
		p.twoA = 2 * p.a
		p.invAlpha = 1.1239 + 1.1328/(p.b-3.4)
		p.vr = 0.9277 - 3.6224/(p.b-2)
		p.logMu = math.Log(mu)
	}
	return p
}

// Sample draws one variate.
func (p *PoissonSampler) Sample() int {
	switch {
	case p.mu <= 0:
		return 0
	case p.mu < 30:
		return p.knuth()
	default:
		return p.ptrs()
	}
}

func (p *PoissonSampler) knuth() int {
	src, limit := p.src, p.limit
	k := 0
	prod := 1.0
	for {
		prod *= src.Float64()
		if prod <= limit {
			return k
		}
		k++
	}
}

// ptrs implements W. Hörmann, "The transformed rejection method for
// generating Poisson random variables", Insurance: Mathematics and
// Economics 12 (1993). Valid for mu >= 10.
func (p *PoissonSampler) ptrs() int {
	for {
		u := p.src.Float64() - 0.5
		v := p.src.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((p.twoA/us+p.b)*u + p.mu + 0.43)
		if us >= 0.07 && v <= p.vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lhs := math.Log(v * p.invAlpha / (p.a/(us*us) + p.b))
		rhs := k*p.logMu - p.mu - logGamma(k+1)
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
