// Package homac implements the homomorphic message authentication codes of
// §5.5 (Catalano–Fiore style), which add result verification to HEAR's
// malleable-by-design ciphertexts. Each rank tags every ciphertext element,
//
//	σ_i[j] = (s_i[j] − c_i[j]) / Z  mod p            (naive form)
//	σ_i[j] = (s_i[j] − s_{i+1}[j] − c_i[j]) / Z mod p  (canceling form)
//
// where s_i[j] is a pseudorandom per-ciphertext key derived from the same
// telescoping key schedule as the encryption noise, Z is the communicator's
// secret verification key, and p a prime of λ bits. The network sums the
// (c, σ) pairs; after reduction the ranks check
//
//	Σ_i s_i[j]  ==  c_t[j] + σ_t[j]·Z  mod p
//
// which with the canceling form needs only s_0[j] — Θ(1), like decryption.
//
// Two deliberate engineering notes, both recorded in DESIGN.md:
//
//   - The data lane sums ciphertexts mod 2^64 while the MAC works mod p,
//     so the true Σc may exceed the data lane's wrapped c_t by k·2^64 for
//     some k < P. Verify searches k ∈ [0, P); an INC device cannot exploit
//     this because it would still need a forged (c, σ) pair consistent
//     for *some* k, which requires Z.
//   - The tag doubles the per-element traffic (64-bit p ⇒ the >200%
//     inflation the paper quotes); Overhead reports it.
package homac

import (
	"fmt"
	"sort"

	"hear/internal/keys"
	"hear/internal/prf"
	"hear/internal/ring"
)

// macDomain separates the MAC key stream from the encryption noise stream
// that shares the PRF: s_i[j] = F_{k_e}(k_s_i + k_c + macDomain, j).
const macDomain uint64 = 0x9E3779B97F4A7C15

// Vector tags and verifies vectors of 64-bit ciphertext lanes.
type Vector struct {
	f    ring.Fp
	z    uint64
	zInv uint64
}

// New builds a verifier over Z_p with verification key z. p must be an odd
// prime (the fast path uses the 61-bit Mersenne prime ring.MersennePrime61);
// z must be a non-zero residue.
func New(p, z uint64) (*Vector, error) {
	if p < 3 || p&1 == 0 {
		return nil, fmt.Errorf("homac: modulus %d is not an odd prime", p)
	}
	f := ring.NewFp(p)
	z = f.Reduce(z)
	if z == 0 {
		return nil, fmt.Errorf("homac: verification key Z must be non-zero mod p")
	}
	return &Vector{f: f, z: z, zInv: f.Inv(z)}, nil
}

// keyAt derives the per-ciphertext homomorphic key s[j] for stream nonce.
func (v *Vector) keyAt(p prf.PRF, nonce uint64, j int) uint64 {
	return v.f.Reduce(p.Uint64(nonce+macDomain, uint64(j)))
}

// Tag produces the canceling-form tags for n ciphertext elements. cipher
// holds 64-bit little-endian lanes (narrower datatypes zero-extend into a
// lane before tagging).
func (v *Vector) Tag(st *keys.RankState, cipher []uint64, tags []uint64) error {
	if len(tags) < len(cipher) {
		return fmt.Errorf("homac: tag buffer %d < %d elements", len(tags), len(cipher))
	}
	self, next := st.SelfNonce(), st.NextNonce()
	last := st.IsLast()
	for j, c := range cipher {
		s := v.keyAt(st.Enc, self, j)
		if !last {
			s = v.f.Sub(s, v.keyAt(st.Enc, next, j))
		}
		sigma := v.f.Mul(v.f.Sub(s, v.f.Reduce(c)), v.zInv)
		tags[j] = sigma
	}
	return nil
}

// Aggregate folds src tags into dst (the network-side σ reduction).
func (v *Vector) Aggregate(dst, src []uint64) {
	for j := range dst {
		dst[j] = v.f.Add(dst[j], v.f.Reduce(src[j]))
	}
}

// Verify checks the reduced (c_t, σ_t) pairs against s_0. reducedCipher is
// the data lane after the mod-2^64 reduction; wraps is the maximum number
// of 2^64 wraps the true sum may have accumulated (use the communicator
// size). It reports the index of the first failing element, or -1.
func (v *Vector) Verify(st *keys.RankState, reducedCipher, tags []uint64, wraps int) int {
	root := st.RootNonce()
	pow64 := v.f.Reduce(1 << 63)
	pow64 = v.f.Add(pow64, pow64) // 2^64 mod p
	for j := range reducedCipher {
		s0 := v.keyAt(st.Enc, root, j)
		rhs := v.f.Add(v.f.Reduce(reducedCipher[j]), v.f.Mul(tags[j], v.z))
		ok := false
		for k := 0; k <= wraps; k++ {
			if rhs == s0 {
				ok = true
				break
			}
			rhs = v.f.Add(rhs, pow64)
		}
		if !ok {
			return j
		}
	}
	return -1
}

// VerifySubset checks a degraded round's reduced (c_t, σ_t) pairs, where
// only the survivor subset contributed: the canceling tag keys telescope
// per missing run [a,b] just like the encryption noise, so the expected key
// sum over the survivors is
//
//	Σ_{i∈S} Δs_i[j]  =  s_0[j] − Σ_{runs} (s_a[j] − s_{b+1}[j])
//
// (the s_{b+1} term vanishes when the run reaches rank P−1). Deriving the
// run-boundary keys needs the shared-group key policy (st.RankNonce);
// states generated without it return an error rather than a bogus verdict.
// missing lists the absent ranks; wraps bounds the data-lane 2^64 wraps
// (use the survivor count). Reports the first failing index, or -1.
func (v *Vector) VerifySubset(st *keys.RankState, missing []int, reducedCipher, tags []uint64, wraps int) (int, error) {
	if len(missing) == 0 {
		return v.Verify(st, reducedCipher, tags, wraps), nil
	}
	// Resolve the run-boundary nonces once; per-element work stays O(runs).
	type run struct {
		pos, neg uint64
		hasNeg   bool
	}
	m := make([]int, len(missing))
	copy(m, missing)
	sort.Ints(m)
	for i := 1; i < len(m); i++ {
		if m[i] == m[i-1] {
			return 0, fmt.Errorf("homac: subset verify: duplicate missing rank %d", m[i])
		}
	}
	var runs []run
	for i := 0; i < len(m); {
		a := m[i]
		b := a
		for i++; i < len(m) && m[i] == b+1; i++ {
			b = m[i]
		}
		pos, err := st.RankNonce(a)
		if err != nil {
			return 0, fmt.Errorf("homac: subset verify: %w", err)
		}
		r := run{pos: pos}
		if b < st.Size-1 {
			neg, err := st.RankNonce(b + 1)
			if err != nil {
				return 0, fmt.Errorf("homac: subset verify: %w", err)
			}
			r.neg, r.hasNeg = neg, true
		}
		runs = append(runs, r)
	}
	root := st.RootNonce()
	pow64 := v.f.Reduce(1 << 63)
	pow64 = v.f.Add(pow64, pow64) // 2^64 mod p
	for j := range reducedCipher {
		want := v.keyAt(st.Enc, root, j)
		for _, r := range runs {
			want = v.f.Sub(want, v.keyAt(st.Enc, r.pos, j))
			if r.hasNeg {
				want = v.f.Add(want, v.keyAt(st.Enc, r.neg, j))
			}
		}
		rhs := v.f.Add(v.f.Reduce(reducedCipher[j]), v.f.Mul(tags[j], v.z))
		ok := false
		for k := 0; k <= wraps; k++ {
			if rhs == want {
				ok = true
				break
			}
			rhs = v.f.Add(rhs, pow64)
		}
		if !ok {
			return j, nil
		}
	}
	return -1, nil
}

// Overhead reports the per-element traffic multiplier the MAC adds for a
// dataBits-wide datatype: (dataBits + λ)/dataBits, e.g. 2.0 (i.e. +100%,
// a >200%-of-plaintext pair) for 64-bit data and a 64-bit p.
func (v *Vector) Overhead(dataBits int) float64 {
	lambda := 0
	for p := v.f.P; p > 0; p >>= 1 {
		lambda++
	}
	return float64(dataBits+lambda) / float64(dataBits)
}
