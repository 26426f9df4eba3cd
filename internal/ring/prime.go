package ring

import "math/bits"

// MersennePrime61 is 2^61 - 1, the prime modulus used by the fast HoMAC
// path. It is large enough for the paper's "reasonable 64-bit p" discussion
// while keeping mulmod branch-free on 64-bit words.
const MersennePrime61 uint64 = (1 << 61) - 1

// The four functions below are Z_p for p = MersennePrime61 in shift-add
// form: 2^61 ≡ 1 (mod p), so a value folds onto itself 61 bits down and no
// operation needs a hardware divide. They are the arithmetic of the HoMAC
// block kernels (internal/homac) and the tag fold (fold.SumMod61); Fp below
// is the general-prime form they are tested against.

// Reduce61 maps any 64-bit x into [0, p).
func Reduce61(x uint64) uint64 {
	r := (x & MersennePrime61) + (x >> 61) // ≤ p + 7
	if r >= MersennePrime61 {
		r -= MersennePrime61
	}
	return r
}

// Add61 returns x + y mod p. Inputs must already be reduced.
func Add61(x, y uint64) uint64 {
	s := x + y // < 2^62, cannot overflow
	if s >= MersennePrime61 {
		s -= MersennePrime61
	}
	return s
}

// Sub61 returns x − y mod p. Inputs must already be reduced.
func Sub61(x, y uint64) uint64 {
	d := x - y
	if x < y {
		d += MersennePrime61
	}
	return d
}

// Mul61 returns x · y mod p for x, y < 2^62 — reduced residues and the
// unreduced edge values p, 2^61 and 2p alike. Wider words (anything read
// off a wire) must go through Reduce61 first: the high product word is
// shifted left by three and would lose bits.
func Mul61(x, y uint64) uint64 {
	hi, lo := bits.Mul64(x, y) // x·y < 2^124
	// x·y = (x·y >> 61)·2^61 + (lo & p) ≡ their sum, < 2^63 + 2^61; it can
	// be as large as 2p, which the second fold (Reduce61's) absorbs.
	return Reduce61((lo & MersennePrime61) + (hi<<3 | lo>>61))
}

// Fp is the prime field Z_p for an arbitrary 64-bit prime p.
type Fp struct {
	P uint64
}

// NewFp returns arithmetic mod p. p must be an odd prime > 2; primality is
// the caller's contract (the HoMAC package only constructs it with known
// primes), but trivially-wrong moduli are rejected.
func NewFp(p uint64) Fp {
	if p < 3 || p&1 == 0 {
		panic("ring: field modulus must be an odd prime")
	}
	return Fp{P: p}
}

// Reduce maps x into [0, p).
func (f Fp) Reduce(x uint64) uint64 { return x % f.P }

// Add returns x + y mod p. Inputs must already be reduced.
func (f Fp) Add(x, y uint64) uint64 {
	s, carry := bits.Add64(x, y, 0)
	if carry == 1 || s >= f.P {
		s -= f.P
	}
	return s
}

// Sub returns x - y mod p. Inputs must already be reduced.
func (f Fp) Sub(x, y uint64) uint64 {
	d, borrow := bits.Sub64(x, y, 0)
	if borrow == 1 {
		d += f.P
	}
	return d
}

// Neg returns -x mod p.
func (f Fp) Neg(x uint64) uint64 {
	if x == 0 {
		return 0
	}
	return f.P - x
}

// Mul returns x * y mod p using 128-bit intermediate arithmetic.
func (f Fp) Mul(x, y uint64) uint64 {
	hi, lo := bits.Mul64(x, y)
	_, rem := bits.Div64(hi%f.P, lo, f.P)
	return rem
}

// Pow returns base^exp mod p by square-and-multiply.
func (f Fp) Pow(base, exp uint64) uint64 {
	result := uint64(1)
	base = f.Reduce(base)
	for exp > 0 {
		if exp&1 == 1 {
			result = f.Mul(result, base)
		}
		base = f.Mul(base, base)
		exp >>= 1
	}
	return result
}

// Inv returns x^{-1} mod p via Fermat's little theorem. x must be non-zero.
func (f Fp) Inv(x uint64) uint64 {
	if f.Reduce(x) == 0 {
		panic("ring: zero has no inverse in a field")
	}
	return f.Pow(x, f.P-2)
}
