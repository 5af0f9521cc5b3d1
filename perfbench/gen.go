package main

import "math"

// splitmix is the seeded generator behind every input the benchmark
// makes: the same --seed gives the same keys, mixes and values.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// stream returns the generator for stream id of a seed, so workers and
// phases draw independent inputs.
func stream(seed, id uint64) splitmix {
	s := splitmix(seed*0xD1B54A32D192ED03 + id*0x8CB92BA72F3D8DD7 + 1)
	s.next()
	return s
}

// keyTag derives the check tag a value carries for its key: a reply
// whose tag does not match the key it answers is a wrong answer (the
// server returned another key's value).
func keyTag(key uint64) uint32 {
	z := key*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	z = (z ^ (z >> 32)) * 0xD6E8FEB86659FD93
	return uint32(z>>32) | 1 // never 0, so a zeroed word never passes
}

// tagged packs a key's tag with a version into a binary-protocol value.
func tagged(key uint64, version uint32) uint64 {
	return uint64(keyTag(key))<<32 | uint64(version)
}

// tagOK reports whether v carries key's tag.
func tagOK(key, v uint64) bool { return uint32(v>>32) == keyTag(key) }

// zipfian draws ranks in [0, n) with popularity ∝ 1/(rank+1)^theta: the
// YCSB generator (Gray et al.), which expresses theta < 1 where the
// standard library's rand.Zipf cannot. Ranks are scattered over the key
// space so the hottest keys are not neighbours.
type zipfian struct {
	n                   uint64
	alpha, eta          float64
	zetan, halfPowTheta float64
	mul                 uint64 // scatter multiplier, coprime to n
	rng                 splitmix
}

func newZipfian(n uint64, theta float64, rng splitmix) *zipfian {
	zeta := func(n uint64) float64 {
		var z float64
		for i := uint64(1); i <= n; i++ {
			z += 1 / math.Pow(float64(i), theta)
		}
		return z
	}
	zetan := zeta(n)
	mul := uint64(0x9E3779B97F4A7C15) % n
	for gcd(mul, n) != 1 {
		mul++
	}
	return &zipfian{
		mul: mul,
		n:   n, alpha: 1 / (1 - theta), zetan: zetan,
		eta:          (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/zetan),
		halfPowTheta: 1 + math.Pow(0.5, theta),
		rng:          rng,
	}
}

// rank returns the next popularity rank (0 is hottest).
func (z *zipfian) rank() uint64 {
	u := float64(z.rng.next()>>11) / (1 << 53)
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < z.halfPowTheta:
		return 1
	}
	r := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// index maps a rank to its key index in [0, n): a fixed permutation (an
// affine map whose multiplier is coprime to n), so every rank has its
// own key. rank·mul stays below n² and cannot overflow for n < 2³².
func (z *zipfian) index(rank uint64) uint64 { return (rank*z.mul + 12345) % z.n }

// next draws the key index of the next request.
func (z *zipfian) next() uint64 { return z.index(z.rank()) }

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
