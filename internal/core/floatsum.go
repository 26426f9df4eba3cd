package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"hear/internal/hfp"
	"hear/internal/keys"
	"hear/internal/prf"
)

// floatWire reads/writes plaintext floats on the wire. FP64-family schemes
// use 8-byte float64 elements; FP32- and FP16-family schemes use 4-byte
// float32 elements (Go has no native half type; FP16 precision is enforced
// by the HFP mantissa width, not the wire type).
type floatWire struct{ size int }

func wireFor(base hfp.Format) floatWire {
	if base.Lm > 23 {
		return floatWire{size: 8}
	}
	return floatWire{size: 4}
}

func (w floatWire) load(buf []byte, j int) float64 {
	if w.size == 8 {
		return math.Float64frombits(binary.LittleEndian.Uint64(buf[j*8:]))
	}
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[j*4:])))
}

func (w floatWire) store(buf []byte, j int, x float64) {
	if w.size == 8 {
		binary.LittleEndian.PutUint64(buf[j*8:], math.Float64bits(x))
		return
	}
	binary.LittleEndian.PutUint32(buf[j*4:], math.Float32bits(float32(x)))
}

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
type FloatSum struct {
	f    hfp.Format
	name string
	wire floatWire
	cell hfp.Cell // precomputed pack/unpack/noise codec (bulk fast path)
}

// NewFloatSum builds the v1 addition scheme over base (hfp.FP16/FP32/FP64)
// with inflation parameter gamma.
func NewFloatSum(base hfp.Format, gamma uint) (*FloatSum, error) {
	f := base.ForAdd(gamma)
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("core: float-sum: %w", err)
	}
	s := &FloatSum{f: f, wire: wireFor(base), cell: f.Cell()}
	s.name = fmt.Sprintf("float%d-sum-v1/γ=%d", 1+f.Le+f.Lm, f.Gamma)
	return s, nil
}

// Format exposes the underlying HFP format (used by precision experiments).
func (s *FloatSum) Format() hfp.Format { return s.f }

func (s *FloatSum) Name() string { return s.name }

func (s *FloatSum) PlainSize() int  { return s.wire.size }
func (s *FloatSum) CipherSize() int { return s.f.ByteSize() }

func (s *FloatSum) Encrypt(st *keys.RankState, plain, cipher []byte, n int) error {
	return s.EncryptAt(st, plain, cipher, n, 0)
}

func (s *FloatSum) EncryptAt(st *keys.RankState, plain, cipher []byte, n, off int) error {
	if err := checkSpan(s.Name(), plain, cipher, n, off, s.PlainSize(), s.CipherSize()); err != nil {
		return err
	}
	cs := s.CipherSize()
	nb := n * hfp.NoiseBytes // noise bytes, the stream the loop is blocked on
	ns := openNoise(st.Enc, st.CollectiveNonce(), uint64(off)*hfp.NoiseBytes, nb)
	defer ns.close()
	for done := 0; done < nb; done += prf.BlockBytes {
		b := ns.next()
		m := blockLen(nb, done)
		for o := 0; o < m; o += hfp.NoiseBytes {
			j := (done + o) / hfp.NoiseBytes
			v, err := s.f.Encode(s.wire.load(plain, j))
			if err != nil {
				return fmt.Errorf("%s: element %d: %w", s.Name(), j, err)
			}
			noise := s.cell.Noise(b[o:])
			s.cell.Pack(s.f.Mul(v, noise), cipher[j*cs:])
		}
	}
	return nil
}

func (s *FloatSum) Decrypt(st *keys.RankState, cipher, plain []byte, n int) error {
	return s.DecryptAt(st, cipher, plain, n, 0)
}

func (s *FloatSum) DecryptAt(st *keys.RankState, cipher, plain []byte, n, off int) error {
	if err := checkSpan(s.Name(), plain, cipher, n, off, s.PlainSize(), s.CipherSize()); err != nil {
		return err
	}
	cs := s.CipherSize()
	nb := n * hfp.NoiseBytes
	ns := openNoise(st.Enc, st.CollectiveNonce(), uint64(off)*hfp.NoiseBytes, nb)
	defer ns.close()
	for done := 0; done < nb; done += prf.BlockBytes {
		b := ns.next()
		m := blockLen(nb, done)
		for o := 0; o < m; o += hfp.NoiseBytes {
			j := (done + o) / hfp.NoiseBytes
			c := s.cell.Unpack(cipher[j*cs:])
			noise := s.cell.Noise(b[o:])
			s.wire.store(plain, j, s.f.Decode(s.f.Div(c, noise)))
		}
	}
	return nil
}

// Reduce runs the fused ⊞ fold kernel (hfp.Format.FoldAdd).
func (s *FloatSum) Reduce(dst, src []byte, n int) {
	s.f.FoldAdd(dst[:n*s.CipherSize()], src, n)
}
