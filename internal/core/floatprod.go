package core

import (
	"fmt"

	"hear/internal/hfp"
	"hear/internal/keys"
	"hear/internal/prf"
)

// FloatProd implements the floating point multiplication scheme of §5.3.2
// (eq. 6) with noise canceling between neighbouring ranks and no exponent
// inflation (δ = 0):
//
//	c_i[j] = x_i[j] ⊗ F(k_s_i+k_c+j) ⊘ F(k_s_{i+1}+k_c+j)   i < P−1
//	c_i[j] = x_i[j] ⊗ F(k_s_i+k_c+j)                         i = P−1
//
// The factors telescope under ⊗, leaving Πx ⊗ F(k_s_0+k_c+j); decryption
// divides by that factor. Per-rank noises give the scheme global safety in
// addition to temporal and local (§5.3.2); it is COA-secure under both
// adversary models. Division by encrypted values rides the scheme by
// multiplying with reciprocals prepared in the secure environment.
type FloatProd struct {
	f    hfp.Format
	name string
	wire floatWire
	cell hfp.Cell // precomputed pack/unpack/noise codec (bulk fast path)
}

// NewFloatProd builds the multiplication scheme over base with inflation
// parameter gamma (the paper's most performant choice is γ = 0: ciphertext
// width equals plaintext width exactly).
func NewFloatProd(base hfp.Format, gamma uint) (*FloatProd, error) {
	f := base.ForMul(gamma)
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("core: float-prod: %w", err)
	}
	s := &FloatProd{f: f, wire: wireFor(base), cell: f.Cell()}
	s.name = fmt.Sprintf("float%d-prod/γ=%d", 1+f.Le+f.Lm, f.Gamma)
	return s, nil
}

// Format exposes the underlying HFP format.
func (s *FloatProd) Format() hfp.Format { return s.f }

func (s *FloatProd) Name() string { return s.name }

func (s *FloatProd) PlainSize() int  { return s.wire.size }
func (s *FloatProd) CipherSize() int { return s.f.ByteSize() }

func (s *FloatProd) Encrypt(st *keys.RankState, plain, cipher []byte, n int) error {
	return s.EncryptAt(st, plain, cipher, n, 0)
}

func (s *FloatProd) EncryptAt(st *keys.RankState, plain, cipher []byte, n, off int) error {
	if err := checkSpan(s.Name(), plain, cipher, n, off, s.PlainSize(), s.CipherSize()); err != nil {
		return err
	}
	cs := s.CipherSize()
	last := st.IsLast()
	byteOff := uint64(off) * hfp.NoiseBytes
	nb := n * hfp.NoiseBytes
	ns1 := openNoise(st.Enc, st.SelfNonce(), byteOff, nb)
	defer ns1.close()
	var ns2 *noiseStream
	if !last {
		ns2 = openNoise(st.Enc, st.NextNonce(), byteOff, nb)
		defer ns2.close()
	}
	for done := 0; done < nb; done += prf.BlockBytes {
		b1 := ns1.next()
		var b2 *[prf.BlockBytes]byte
		if !last {
			b2 = ns2.next()
		}
		m := blockLen(nb, done)
		for o := 0; o < m; o += hfp.NoiseBytes {
			j := (done + o) / hfp.NoiseBytes
			v, err := s.f.Encode(s.wire.load(plain, j))
			if err != nil {
				return fmt.Errorf("%s: element %d: %w", s.Name(), j, err)
			}
			noise := s.cell.Noise(b1[o:])
			if !last {
				noise = s.f.Div(noise, s.cell.Noise(b2[o:]))
			}
			s.cell.Pack(s.f.Mul(v, noise), cipher[j*cs:])
		}
	}
	return nil
}

func (s *FloatProd) Decrypt(st *keys.RankState, cipher, plain []byte, n int) error {
	return s.DecryptAt(st, cipher, plain, n, 0)
}

func (s *FloatProd) DecryptAt(st *keys.RankState, cipher, plain []byte, n, off int) error {
	if err := checkSpan(s.Name(), plain, cipher, n, off, s.PlainSize(), s.CipherSize()); err != nil {
		return err
	}
	cs := s.CipherSize()
	nb := n * hfp.NoiseBytes
	ns := openNoise(st.Enc, st.RootNonce(), uint64(off)*hfp.NoiseBytes, nb)
	defer ns.close()
	for done := 0; done < nb; done += prf.BlockBytes {
		b1 := ns.next()
		m := blockLen(nb, done)
		for o := 0; o < m; o += hfp.NoiseBytes {
			j := (done + o) / hfp.NoiseBytes
			c := s.cell.Unpack(cipher[j*cs:])
			noise := s.cell.Noise(b1[o:])
			s.wire.store(plain, j, s.f.Decode(s.f.Div(c, noise)))
		}
	}
	return nil
}

// Reduce runs the fused ⊗ fold kernel (hfp.Format.FoldMul).
func (s *FloatProd) Reduce(dst, src []byte, n int) {
	s.f.FoldMul(dst[:n*s.CipherSize()], src, n)
}
