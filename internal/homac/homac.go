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
//
// The hot path is a block kernel like internal/core's: the keys of eight
// consecutive elements are one 64-byte block of a prf.BlockSource stream
// (s[j] is bytes [8j, 8j+8) of the stream, exactly what PRF.Uint64(nonce, j)
// returns, so the derivation is unchanged), and the field arithmetic is
// ring's shift-add Mersenne-61 form. The per-word form it replaced is the
// test oracle (homac_test.go); tags are byte-identical to it.
package homac

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"hear/internal/keys"
	"hear/internal/prf"
	"hear/internal/ring"
)

// macDomain separates the MAC key stream from the encryption noise stream
// that shares the PRF: s_i[j] = F_{k_e}(k_s_i + k_c + macDomain, j), i.e.
// bytes [8j, 8j+8) of the keystream at nonce k_s_i + k_c + macDomain,
// reduced mod p.
const macDomain uint64 = 0x9E3779B97F4A7C15

// blockWords is the kernel granularity: the eight 64-bit MAC keys of one
// prf.BlockBytes keystream block.
const blockWords = prf.BlockBytes / 8

// pow64 is 2^64 mod p, the step of the data-lane wrap search.
const pow64 = 8

// Vector tags and verifies vectors of 64-bit ciphertext lanes over
// Z_p, p = ring.MersennePrime61. The kernels (tagBlock, verifyBlock) work on
// little-endian byte lanes, the form lanes have on the wire (TagBytes,
// VerifySubsetBytes); the []uint64 entry points (Tag, Verify, VerifySubset)
// stage their lanes through the same kernels a chunk at a time.
type Vector struct {
	z    uint64
	zInv uint64
}

// New builds a verifier over Z_p with verification key z. p must be
// ring.MersennePrime61: the network-side tag folds (fold.SumMod61, the INC
// tag tree) are hard-wired to it, so tags over any other prime could never
// round-trip (wider λ is Big's job). z must be a non-zero residue.
func New(p, z uint64) (*Vector, error) {
	if p != ring.MersennePrime61 {
		return nil, fmt.Errorf("homac: modulus %d is not 2^61-1, the only prime the tag folds implement", p)
	}
	z = ring.Reduce61(z)
	if z == 0 {
		return nil, fmt.Errorf("homac: verification key Z must be non-zero mod p")
	}
	return &Vector{z: z, zInv: ring.NewFp(p).Inv(z)}, nil
}

// keySum streams a signed sum of MAC key lanes, Σ ±s_nonce[j], eight keys
// per step: one prf.BlockSource per term, so a key costs an eighth of a
// keystream block instead of a PRF call. Tag sums two terms (self − next),
// Verify one (root), VerifySubset one or two more per missing run. Pooled
// for the reason core's noise streams are: a BlockSource hands interior
// pointers to interface calls, so it cannot live on the stack.
type keySum struct {
	terms []keyTerm
}

type keyTerm struct {
	bs  prf.BlockSource
	neg bool
}

var keySumPool = sync.Pool{New: func() any { return new(keySum) }}

func openKeys() *keySum {
	ks := keySumPool.Get().(*keySum)
	ks.terms = ks.terms[:0]
	return ks
}

func (ks *keySum) close() { keySumPool.Put(ks) }

// add appends the term ±s_nonce over n elements. The first term must be
// positive.
func (ks *keySum) add(enc prf.PRF, nonce uint64, n int, neg bool) {
	if len(ks.terms) < cap(ks.terms) {
		ks.terms = ks.terms[:len(ks.terms)+1]
	} else {
		ks.terms = append(ks.terms, keyTerm{})
	}
	t := &ks.terms[len(ks.terms)-1]
	t.neg = neg
	t.bs.Init(enc, nonce+macDomain, 0, n*8)
}

// next writes the key sums of the next blockWords elements to out.
func (ks *keySum) next(out *[blockWords]uint64) {
	for t := range ks.terms {
		b := ks.terms[t].bs.Next()
		switch {
		case t == 0:
			for i := range out {
				out[i] = ring.Reduce61(binary.LittleEndian.Uint64(b[i*8:]))
			}
		case ks.terms[t].neg:
			for i := range out {
				out[i] = ring.Sub61(out[i], ring.Reduce61(binary.LittleEndian.Uint64(b[i*8:])))
			}
		default:
			for i := range out {
				out[i] = ring.Add61(out[i], ring.Reduce61(binary.LittleEndian.Uint64(b[i*8:])))
			}
		}
	}
}

// chunkWords is how many lane words the []uint64 entry points stage through
// a little-endian stack buffer per kernel call: whole blocks, so the key
// streams stay block-aligned from chunk to chunk.
const chunkWords = 16 * blockWords

// Tag produces the canceling-form tags for n ciphertext elements. cipher
// holds 64-bit lanes (narrower datatypes zero-extend into a lane before
// tagging).
func (v *Vector) Tag(st *keys.RankState, cipher []uint64, tags []uint64) error {
	if len(tags) < len(cipher) {
		return fmt.Errorf("homac: tag buffer %d < %d elements", len(tags), len(cipher))
	}
	ks := tagKeys(st, len(cipher))
	defer ks.close()
	var cb, tb [chunkWords * 8]byte
	for j := 0; j < len(cipher); j += chunkWords {
		m := min(chunkWords, len(cipher)-j)
		for i, c := range cipher[j : j+m] {
			binary.LittleEndian.PutUint64(cb[i*8:], c)
		}
		v.tagBlocks(ks, cb[:m*8], tb[:m*8])
		for i := range tags[j : j+m] {
			tags[j+i] = binary.LittleEndian.Uint64(tb[i*8:])
		}
	}
	return nil
}

// TagBytes is Tag over little-endian byte lanes, the form lanes have on the
// wire: len(cipher)/8 elements, tags written in place. cipher and tags must
// not overlap.
func (v *Vector) TagBytes(st *keys.RankState, cipher, tags []byte) error {
	if len(cipher)%8 != 0 {
		return fmt.Errorf("homac: ciphertext lane %d B is not whole 64-bit words", len(cipher))
	}
	if len(tags) < len(cipher) {
		return fmt.Errorf("homac: tag buffer %d B < %d B", len(tags), len(cipher))
	}
	ks := tagKeys(st, len(cipher)/8)
	defer ks.close()
	v.tagBlocks(ks, cipher, tags[:len(cipher)])
	return nil
}

// tagKeys opens the canceling key sum s_i − s_{i+1} (s_i alone on the last
// rank) over n elements.
func tagKeys(st *keys.RankState, n int) *keySum {
	ks := openKeys()
	ks.add(st.Enc, st.SelfNonce(), n, false)
	if !st.IsLast() {
		ks.add(st.Enc, st.NextNonce(), n, true)
	}
	return ks
}

// tagBlocks tags the next len(cipher)/8 elements of ks's key stream. Only a
// lane's last call may end in a partial block.
func (v *Vector) tagBlocks(ks *keySum, cipher, tags []byte) {
	o := 0
	for ; o+prf.BlockBytes <= len(cipher); o += prf.BlockBytes {
		v.tagBlock(ks, (*[prf.BlockBytes]byte)(cipher[o:]), (*[prf.BlockBytes]byte)(tags[o:]))
	}
	if o < len(cipher) {
		var c, t [prf.BlockBytes]byte
		copy(c[:], cipher[o:])
		v.tagBlock(ks, &c, &t)
		copy(tags[o:], t[:len(cipher)-o])
	}
}

// tagBlock computes σ = (key − c)/Z for one block of eight elements.
func (v *Vector) tagBlock(ks *keySum, c, sigma *[prf.BlockBytes]byte) {
	var key [blockWords]uint64
	ks.next(&key)
	for i := range key {
		x := ring.Reduce61(binary.LittleEndian.Uint64(c[i*8:]))
		binary.LittleEndian.PutUint64(sigma[i*8:], ring.Mul61(ring.Sub61(key[i], x), v.zInv))
	}
}

// Aggregate folds src tags into dst (the network-side σ reduction).
func (v *Vector) Aggregate(dst, src []uint64) {
	for j := range dst {
		dst[j] = ring.Add61(dst[j], ring.Reduce61(src[j]))
	}
}

// Verify checks the reduced (c_t, σ_t) pairs against s_0. reducedCipher is
// the data lane after the mod-2^64 reduction; wraps is the maximum number
// of 2^64 wraps the true sum may have accumulated (use the communicator
// size). It reports the index of the first failing element, or -1. Lane
// words are untrusted: both lanes are reduced mod p before use, and an
// element without a tag fails.
func (v *Vector) Verify(st *keys.RankState, reducedCipher, tags []uint64, wraps int) int {
	bad, _ := v.VerifySubset(st, nil, reducedCipher, tags, wraps) // errors arise from missing ranks only
	return bad
}

// VerifySubset checks a degraded round's reduced (c_t, σ_t) pairs, where
// only the survivor subset contributed: the canceling tag keys telescope
// per missing run [a,b] just like the encryption noise, so the expected key
// sum over the survivors is
//
//	Σ_{i∈S} Δs_i[j]  =  s_0[j] − Σ_{runs} (s_a[j] − s_{b+1}[j])
//
// (the s_{b+1} term vanishes when the run reaches rank P−1) — one key
// stream for the root and one or two per run. Deriving the run-boundary
// keys needs the shared-group key policy (st.RankNonce); states generated
// without it return an error rather than a bogus verdict. missing lists the
// absent ranks (none = Verify); wraps bounds the data-lane 2^64 wraps (use
// the survivor count). Reports the first failing index, or -1.
func (v *Vector) VerifySubset(st *keys.RankState, missing []int, reducedCipher, tags []uint64, wraps int) (int, error) {
	n := min(len(reducedCipher), len(tags))
	ks, err := verifyKeys(st, missing, n)
	if err != nil {
		return 0, err
	}
	defer ks.close()
	maxStep := wrapRange(wraps)
	var cb, tb [chunkWords * 8]byte
	for j := 0; j < n; j += chunkWords {
		m := min(chunkWords, n-j)
		for i := 0; i < m; i++ {
			binary.LittleEndian.PutUint64(cb[i*8:], reducedCipher[j+i])
			binary.LittleEndian.PutUint64(tb[i*8:], tags[j+i])
		}
		if bad := v.verifyBlocks(ks, cb[:m*8], tb[:m*8], maxStep); bad >= 0 {
			return j + bad, nil
		}
	}
	if n < len(reducedCipher) {
		return n, nil // the first element without a tag
	}
	return -1, nil
}

// VerifySubsetBytes is VerifySubset over little-endian byte lanes of one
// whole-word length.
func (v *Vector) VerifySubsetBytes(st *keys.RankState, missing []int, reducedCipher, tags []byte, wraps int) (int, error) {
	if len(reducedCipher)%8 != 0 || len(tags) != len(reducedCipher) {
		return 0, fmt.Errorf("homac: lanes of %d B and %d B are not one whole-word length", len(reducedCipher), len(tags))
	}
	ks, err := verifyKeys(st, missing, len(reducedCipher)/8)
	if err != nil {
		return 0, err
	}
	defer ks.close()
	return v.verifyBlocks(ks, reducedCipher, tags, wrapRange(wraps)), nil
}

// wrapRange turns the wrap bound into the largest accepted difference: the
// key sum may exceed c_t + σ_t·Z by k·2^64 ≡ 8k for k ∈ [0, wraps], so the
// accepted differences are the multiples of 8 up to 8·wraps. A negative
// bound is an empty range (−1: no difference passes). The clamp keeps 8k
// from wrapping mod p; no communicator has 2^58 ranks.
func wrapRange(wraps int) int64 {
	if wraps < 0 {
		return -1
	}
	return int64(min(uint64(wraps), ring.MersennePrime61/pow64) * pow64)
}

// verifyKeys opens the expected key sum over n elements: s_0, less the
// boundary keys −s_a + s_{b+1} of every maximal run [a,b] of missing ranks.
func verifyKeys(st *keys.RankState, missing []int, n int) (*keySum, error) {
	ks := openKeys()
	ks.add(st.Enc, st.RootNonce(), n, false)
	if err := addMissingRuns(ks, st, missing, n); err != nil {
		ks.close()
		return nil, err
	}
	return ks, nil
}

// verifyBlocks checks the next len(cipher)/8 elements of ks's key stream
// and reports the first failing one, or -1. Only a lane's last call may end
// in a partial block.
func (v *Vector) verifyBlocks(ks *keySum, cipher, tags []byte, maxStep int64) int {
	o := 0
	for ; o+prf.BlockBytes <= len(cipher); o += prf.BlockBytes {
		if bad := v.verifyBlock(ks, (*[prf.BlockBytes]byte)(cipher[o:]), (*[prf.BlockBytes]byte)(tags[o:]), maxStep); bad >= 0 {
			return o/8 + bad
		}
	}
	if o < len(cipher) {
		var c, t [prf.BlockBytes]byte
		copy(c[:], cipher[o:])
		copy(t[:], tags[o:])
		if bad := v.verifyBlock(ks, &c, &t, maxStep); bad >= 0 && bad < (len(cipher)-o)/8 {
			return o/8 + bad
		}
	}
	return -1
}

// verifyBlock checks c + σ·Z against the key sum for one block of eight
// elements and reports the first failing one, or -1. Lane words are
// untrusted 64-bit values: both are reduced before use.
func (v *Vector) verifyBlock(ks *keySum, c, sigma *[prf.BlockBytes]byte, maxStep int64) int {
	var key [blockWords]uint64
	ks.next(&key)
	for i := range key {
		rhs := ring.Add61(ring.Reduce61(binary.LittleEndian.Uint64(c[i*8:])),
			ring.Mul61(ring.Reduce61(binary.LittleEndian.Uint64(sigma[i*8:])), v.z))
		if d := int64(ring.Sub61(key[i], rhs)); d > maxStep || d%pow64 != 0 {
			return i
		}
	}
	return -1
}

// addMissingRuns appends the run-boundary key terms −s_a + s_{b+1} of every
// maximal run [a,b] of missing ranks (s_{b+1} vanishes past rank P−1).
func addMissingRuns(ks *keySum, st *keys.RankState, missing []int, n int) error {
	if len(missing) == 0 {
		return nil
	}
	m := make([]int, len(missing))
	copy(m, missing)
	sort.Ints(m)
	for i := 1; i < len(m); i++ {
		if m[i] == m[i-1] {
			return fmt.Errorf("homac: subset verify: duplicate missing rank %d", m[i])
		}
	}
	for i := 0; i < len(m); {
		a := m[i]
		b := a
		for i++; i < len(m) && m[i] == b+1; i++ {
			b = m[i]
		}
		pos, err := st.RankNonce(a)
		if err != nil {
			return fmt.Errorf("homac: subset verify: %w", err)
		}
		ks.add(st.Enc, pos, n, true)
		if b < st.Size-1 {
			neg, err := st.RankNonce(b + 1)
			if err != nil {
				return fmt.Errorf("homac: subset verify: %w", err)
			}
			ks.add(st.Enc, neg, n, false)
		}
	}
	return nil
}

// Overhead reports the per-element traffic multiplier the MAC adds for a
// dataBits-wide datatype: (dataBits + λ)/dataBits with λ = 61, e.g. ≈ 1.95
// (a >200%-of-plaintext pair once tags ride in 64-bit lanes) for 64-bit
// data.
func (v *Vector) Overhead(dataBits int) float64 {
	const lambda = 61
	return float64(dataBits+lambda) / float64(dataBits)
}
