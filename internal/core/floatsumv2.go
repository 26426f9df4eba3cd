package core

import (
	"fmt"
	"math"

	"hear/internal/hfp"
	"hear/internal/keys"
)

// FloatSumV2 implements the alternative addition scheme of §5.3.4, which
// buys global safety at the cost of precision and dynamic range: values
// are encoded as exponentials a_i = e^{x_i}, shipped through the
// multiplicative scheme (per-rank noises, hence global safety), reduced
// multiplicatively so the product is e^{Σx}, and decoded with a logarithm.
//
// Exponentiation compresses the dynamic range: |Σ x_i| must stay below
// (2^(le−1))·ln 2 or the exponent of e^{Σx} leaves the plaintext range
// (≈ 709 for the FP64 base, ≈ 88 for FP32, ≈ 11 for FP16). The relative
// error of the product becomes an *absolute* error of the sum after the
// logarithm — the "medium" lossiness of Table 2. The paper motivates the
// scheme for values known to be in a small range, e.g. normalized ML
// weights.
type FloatSumV2 struct {
	prod *FloatProd
	name string
}

// NewFloatSumV2 builds the alternative addition scheme over base with
// inflation parameter gamma.
func NewFloatSumV2(base hfp.Format, gamma uint) (*FloatSumV2, error) {
	p, err := NewFloatProd(base, gamma)
	if err != nil {
		return nil, fmt.Errorf("core: float-sum-v2: %w", err)
	}
	s := &FloatSumV2{prod: p}
	s.name = fmt.Sprintf("float%d-sum-v2/γ=%d", 1+p.f.Le+p.f.Lm, p.f.Gamma)
	return s, nil
}

// Format exposes the underlying HFP format.
func (s *FloatSumV2) Format() hfp.Format { return s.prod.f }

func (s *FloatSumV2) Name() string { return s.name }

func (s *FloatSumV2) PlainSize() int  { return s.prod.PlainSize() }
func (s *FloatSumV2) CipherSize() int { return s.prod.CipherSize() }

// MaxSum returns the largest |Σx| the scheme can decode for its base
// format.
func (s *FloatSumV2) MaxSum() float64 {
	return float64(int64(1)<<(s.prod.f.Le-1)) * math.Ln2
}

// v2StageElems is how many elements the scheme exponentiates (or takes the
// logarithm of) between calls into the product kernel: a whole number of
// keystream blocks, small enough that the staged e^x lives on the stack
// and is still in L1 when the kernel reads it.
const v2StageElems = 32 * floatElemsPerBlock

func (s *FloatSumV2) Encrypt(st *keys.RankState, plain, cipher []byte, n int) error {
	return s.EncryptAt(st, plain, cipher, n, 0)
}

func (s *FloatSumV2) EncryptAt(st *keys.RankState, plain, cipher []byte, n, off int) error {
	if err := checkSpan(s.Name(), plain, cipher, n, off, s.PlainSize(), s.CipherSize()); err != nil {
		return err
	}
	fn := sealNoise(st, n, off)
	defer fn.close()
	ps, cs := s.PlainSize(), s.CipherSize()
	w := floatWire{size: ps}
	var stage [v2StageElems * 8]byte
	for done := 0; done < n; done += v2StageElems {
		m := min(v2StageElems, n-done)
		for j := 0; j < m; j++ {
			x := w.load(plain, done+j)
			a := math.Exp(x)
			if a == 0 || math.IsInf(a, 0) {
				return fmt.Errorf("%s: element %d: e^%g outside dynamic range", s.Name(), done+j, x)
			}
			w.store(stage[:], j, a)
		}
		if err := fn.seal(s.prod.k, s.prod.name, stage[:m*ps], cipher[done*cs:], m, done); err != nil {
			return err
		}
	}
	return nil
}

func (s *FloatSumV2) Decrypt(st *keys.RankState, cipher, plain []byte, n int) error {
	return s.DecryptAt(st, cipher, plain, n, 0)
}

func (s *FloatSumV2) DecryptAt(st *keys.RankState, cipher, plain []byte, n, off int) error {
	if err := checkSpan(s.Name(), plain, cipher, n, off, s.PlainSize(), s.CipherSize()); err != nil {
		return err
	}
	ns := openFloatStream(st, st.RootNonce(), n, off)
	defer ns.close()
	ps, cs := s.PlainSize(), s.CipherSize()
	w := floatWire{size: ps}
	for done := 0; done < n; done += v2StageElems {
		m := min(v2StageElems, n-done)
		p := plain[done*ps : (done+m)*ps]
		openFloat(s.prod.k, ns, cipher[done*cs:], p, m)
		for j := 0; j < m; j++ {
			w.store(p, j, math.Log(w.load(p, j)))
		}
	}
	return nil
}

func (s *FloatSumV2) Reduce(dst, src []byte, n int) { s.prod.Reduce(dst, src, n) }
