package core

import (
	"fmt"

	"hear/internal/hfp"
	"hear/internal/keys"
)

// FloatSum implements the v1 floating point addition scheme of §5.3.3
// (eq. 7): every rank encrypts element j with the SAME noise factor,
//
//	c_i[j] = x_i[j] ⊗ F_{k_e}(k_c + j)
//
// so ciphertexts add on the HFP ring-exponent FPU and decryption divides
// the common factor out. Because the noise depends only on the collective
// key, the scheme provides temporal and local safety but NOT global safety
// (§5.3.3); it is COA-secure and robust against the single-process
// adversary. γ trades ciphertext inflation for precision (Figure 3).
//
// FP64-family schemes use 8-byte float64 plaintext elements; FP32- and
// FP16-family schemes use 4-byte float32 elements (hfp.Kernel.PlainSize).
type FloatSum struct {
	f    hfp.Format
	name string
	k    *hfp.Kernel
}

// NewFloatSum builds the v1 addition scheme over base (hfp.FP16/FP32/FP64)
// with inflation parameter gamma.
func NewFloatSum(base hfp.Format, gamma uint) (*FloatSum, error) {
	f := base.ForAdd(gamma)
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("core: float-sum: %w", err)
	}
	s := &FloatSum{f: f, k: hfp.NewKernel(f)}
	s.name = fmt.Sprintf("float%d-sum-v1/γ=%d", 1+f.Le+f.Lm, f.Gamma)
	return s, nil
}

// Format exposes the underlying HFP format (used by precision experiments).
func (s *FloatSum) Format() hfp.Format { return s.f }

func (s *FloatSum) Name() string { return s.name }

func (s *FloatSum) PlainSize() int  { return s.k.PlainSize() }
func (s *FloatSum) CipherSize() int { return s.k.CellSize() }

func (s *FloatSum) Encrypt(st *keys.RankState, plain, cipher []byte, n int) error {
	return s.EncryptAt(st, plain, cipher, n, 0)
}

func (s *FloatSum) EncryptAt(st *keys.RankState, plain, cipher []byte, n, off int) error {
	if err := checkSpan(s.Name(), plain, cipher, n, off, s.PlainSize(), s.CipherSize()); err != nil {
		return err
	}
	fn := floatNoise{self: openFloatStream(st, st.CollectiveNonce(), n, off)}
	defer fn.close()
	return fn.seal(s.k, s.name, plain, cipher, n, 0)
}

func (s *FloatSum) Decrypt(st *keys.RankState, cipher, plain []byte, n int) error {
	return s.DecryptAt(st, cipher, plain, n, 0)
}

func (s *FloatSum) DecryptAt(st *keys.RankState, cipher, plain []byte, n, off int) error {
	if err := checkSpan(s.Name(), plain, cipher, n, off, s.PlainSize(), s.CipherSize()); err != nil {
		return err
	}
	ns := openFloatStream(st, st.CollectiveNonce(), n, off)
	defer ns.close()
	openFloat(s.k, ns, cipher, plain, n)
	return nil
}

// Reduce runs the ⊞ fold kernel.
func (s *FloatSum) Reduce(dst, src []byte, n int) { s.k.FoldAdd(dst, src, n) }
