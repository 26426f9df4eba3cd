package core

import (
	"fmt"

	"hear/internal/hfp"
	"hear/internal/keys"
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
	k    *hfp.Kernel
}

// NewFloatProd builds the multiplication scheme over base with inflation
// parameter gamma (the paper's most performant choice is γ = 0: ciphertext
// width equals plaintext width exactly).
func NewFloatProd(base hfp.Format, gamma uint) (*FloatProd, error) {
	f := base.ForMul(gamma)
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("core: float-prod: %w", err)
	}
	s := &FloatProd{f: f, k: hfp.NewKernel(f)}
	s.name = fmt.Sprintf("float%d-prod/γ=%d", 1+f.Le+f.Lm, f.Gamma)
	return s, nil
}

// Format exposes the underlying HFP format.
func (s *FloatProd) Format() hfp.Format { return s.f }

func (s *FloatProd) Name() string { return s.name }

func (s *FloatProd) PlainSize() int  { return s.k.PlainSize() }
func (s *FloatProd) CipherSize() int { return s.k.CellSize() }

func (s *FloatProd) Encrypt(st *keys.RankState, plain, cipher []byte, n int) error {
	return s.EncryptAt(st, plain, cipher, n, 0)
}

func (s *FloatProd) EncryptAt(st *keys.RankState, plain, cipher []byte, n, off int) error {
	if err := checkSpan(s.Name(), plain, cipher, n, off, s.PlainSize(), s.CipherSize()); err != nil {
		return err
	}
	fn := sealNoise(st, n, off)
	defer fn.close()
	return fn.seal(s.k, s.name, plain, cipher, n, 0)
}

// sealNoise opens the rank's own stream and, unless it is the last rank,
// the next rank's canceling stream.
func sealNoise(st *keys.RankState, n, off int) floatNoise {
	fn := floatNoise{self: openFloatStream(st, st.SelfNonce(), n, off)}
	if !st.IsLast() {
		fn.next = openFloatStream(st, st.NextNonce(), n, off)
	}
	return fn
}

func (s *FloatProd) Decrypt(st *keys.RankState, cipher, plain []byte, n int) error {
	return s.DecryptAt(st, cipher, plain, n, 0)
}

func (s *FloatProd) DecryptAt(st *keys.RankState, cipher, plain []byte, n, off int) error {
	if err := checkSpan(s.Name(), plain, cipher, n, off, s.PlainSize(), s.CipherSize()); err != nil {
		return err
	}
	ns := openFloatStream(st, st.RootNonce(), n, off)
	defer ns.close()
	openFloat(s.k, ns, cipher, plain, n)
	return nil
}

// Reduce runs the ⊗ fold kernel.
func (s *FloatProd) Reduce(dst, src []byte, n int) { s.k.FoldMul(dst, src, n) }
