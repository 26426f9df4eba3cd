package core

import (
	"math/rand"
	"testing"

	"hear/internal/hfp"
	"hear/internal/keys"
)

// Per-element cost of the float kernels at the end-to-end benchmark's
// shape: FP32 γ = 0, 64 Ki elements drawn as 1 + u·998 (ar_f32_256k's
// draw), default PRF backend. "sum" is the v1 addition scheme (one noise
// stream, ⊞ fold), "prod" the multiplication scheme at a canceling rank
// (two noise streams, ⊗ fold). ns/elem includes the ≈ 3 ns/elem keystream.

const floatBenchElems = 64 << 10

func floatBenchSchemes(b *testing.B) []Scheme {
	b.Helper()
	sum, err := NewFloatSum(hfp.FP32, 0)
	if err != nil {
		b.Fatal(err)
	}
	prod, err := NewFloatProd(hfp.FP32, 0)
	if err != nil {
		b.Fatal(err)
	}
	return []Scheme{sum, prod}
}

func floatBenchPlain(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float32, floatBenchElems)
	for i := range vals {
		vals[i] = float32(1 + rng.Float64()*998)
	}
	return f32buf(vals)
}

// floatBenchCipher encrypts a fresh draw at rank so Open and Fold work on
// ciphertexts the scheme itself produced.
func floatBenchCipher(b *testing.B, s Scheme, st *keys.RankState, seed int64) []byte {
	b.Helper()
	cipher := make([]byte, floatBenchElems*s.CipherSize())
	if err := s.Encrypt(st, floatBenchPlain(seed), cipher, floatBenchElems); err != nil {
		b.Fatal(err)
	}
	return cipher
}

func reportPerElem(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*floatBenchElems), "ns/elem")
}

func BenchmarkFloatSeal(b *testing.B) {
	for _, s := range floatBenchSchemes(b) {
		b.Run(s.Name(), func(b *testing.B) {
			st := genStates(b, 2)[0]
			st.Advance()
			plain := floatBenchPlain(1)
			cipher := make([]byte, floatBenchElems*s.CipherSize())
			b.SetBytes(int64(len(plain)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.EncryptAt(st, plain, cipher, floatBenchElems, 0); err != nil {
					b.Fatal(err)
				}
			}
			reportPerElem(b)
		})
	}
}

func BenchmarkFloatOpen(b *testing.B) {
	for _, s := range floatBenchSchemes(b) {
		b.Run(s.Name(), func(b *testing.B) {
			st := genStates(b, 1)[0] // one rank: its own ciphertext decrypts to in-range floats
			st.Advance()
			cipher := floatBenchCipher(b, s, st, 1)
			plain := make([]byte, floatBenchElems*s.PlainSize())
			b.SetBytes(int64(len(plain)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.DecryptAt(st, cipher, plain, floatBenchElems, 0); err != nil {
					b.Fatal(err)
				}
			}
			reportPerElem(b)
		})
	}
}

// BenchmarkFloatFold folds fresh operands every iteration: folding into
// one accumulator over and over drives it to a magnitude where the
// larger-operand choice is the same for every element, which hides that
// choice's cost. The copy that restores the accumulator is inside the
// timed loop (< 1 % of it).
func BenchmarkFloatFold(b *testing.B) {
	for _, s := range floatBenchSchemes(b) {
		b.Run(s.Name(), func(b *testing.B) {
			states := genStates(b, 2)
			for _, st := range states {
				st.Advance()
			}
			fresh := floatBenchCipher(b, s, states[0], 1)
			src := floatBenchCipher(b, s, states[1], 2)
			dst := make([]byte, len(fresh))
			b.SetBytes(int64(floatBenchElems * s.PlainSize()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(dst, fresh)
				s.Reduce(dst, src, floatBenchElems)
			}
			reportPerElem(b)
		})
	}
}
