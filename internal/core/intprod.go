package core

import (
	"fmt"

	"hear/internal/core/fold"
	"hear/internal/keys"
	"hear/internal/prf"
	"hear/internal/ring"
)

// IntProd implements the integer multiplication scheme of §5.1.2 (eq. 2)
// on the multiplicative structure of Z_{2^width} with the subgroup
// generator g = 3:
//
//	c_i[j] = x_i[j] · g^{F(k_s_i+k_c+j)}                          i = P−1
//	c_i[j] = x_i[j] · g^{F(k_s_i+k_c+j) − F(k_s_{i+1}+k_c+j)}     otherwise
//
// The exponents telescope under multiplication, leaving g^{F(k_s_0+k_c+j)}
// on the aggregate; decryption multiplies by the modular inverse. Every
// power of g is odd and hence a unit, so multiplying by the noise is a
// bijection of Z_{2^b} — the scheme is lossless for *all* plaintexts, even
// though Z*_{2^b} is not cyclic and g only generates the order-2^{b−2}
// subgroup (noted in DESIGN.md; the paper's Table 3 footnote makes the
// same caveat). Modular division rides the scheme by multiplying with the
// modular inverse of the divisor.
//
// Encryption and decryption each cost one O(log d) modular exponentiation
// per element (§5.1.4), implemented with the 2^4-ary method.
type IntProd struct {
	width int
	name  string
	r     ring.Z2
	fold  fold.Func
}

// NewIntProd returns the PROD scheme for 8-, 16-, 32-, or 64-bit integers.
func NewIntProd(widthBits int) (*IntProd, error) {
	if err := checkWidth("core: int-prod", widthBits); err != nil {
		return nil, err
	}
	return &IntProd{
		width: widthBits / 8,
		name:  fmt.Sprintf("int%d-prod", widthBits),
		r:     ring.NewZ2(uint(widthBits)),
		fold:  fold.Prod(widthBits),
	}, nil
}

func (s *IntProd) Name() string { return s.name }

func (s *IntProd) PlainSize() int  { return s.width }
func (s *IntProd) CipherSize() int { return s.width }

// noiseExp extracts the exponent for element j from keystream ks. The
// exponent is reduced modulo the subgroup order implicitly by Pow.
func (s *IntProd) noiseExp(ks []byte, j int) uint64 {
	return intWire{size: s.width}.load(ks, j)
}

func (s *IntProd) load(buf []byte, j int) uint64 {
	return intWire{size: s.width}.load(buf, j)
}

func (s *IntProd) store(buf []byte, j int, v uint64) {
	intWire{size: s.width}.store(buf, j, v)
}

func (s *IntProd) Encrypt(st *keys.RankState, plain, cipher []byte, n int) error {
	return s.EncryptAt(st, plain, cipher, n, 0)
}

func (s *IntProd) EncryptAt(st *keys.RankState, plain, cipher []byte, n, off int) error {
	if err := checkSpan(s.Name(), plain, cipher, n, off, s.width, s.width); err != nil {
		return err
	}
	nb := n * s.width
	byteOff := uint64(off) * uint64(s.width)
	cancel := !st.IsLast()
	ns1 := openNoise(st.Enc, st.SelfNonce(), byteOff, nb)
	defer ns1.close()
	var ns2 *noiseStream
	if cancel {
		ns2 = openNoise(st.Enc, st.NextNonce(), byteOff, nb)
		defer ns2.close()
	}
	for done := 0; done < nb; done += prf.BlockBytes {
		b1 := ns1.next()
		var b2 *[prf.BlockBytes]byte
		if cancel {
			b2 = ns2.next()
		}
		m := blockLen(nb, done)
		for o := 0; o < m; o += s.width {
			j := (done + o) / s.width
			noise := s.r.PowG(s.noiseExp(b1[:], o/s.width))
			if cancel {
				noise = s.r.Mul(noise, s.r.InvPowG(s.noiseExp(b2[:], o/s.width)))
			}
			s.store(cipher, j, s.r.Mul(s.load(plain, j), noise))
		}
	}
	return nil
}

func (s *IntProd) Decrypt(st *keys.RankState, cipher, plain []byte, n int) error {
	return s.DecryptAt(st, cipher, plain, n, 0)
}

func (s *IntProd) DecryptAt(st *keys.RankState, cipher, plain []byte, n, off int) error {
	if err := checkSpan(s.Name(), plain, cipher, n, off, s.width, s.width); err != nil {
		return err
	}
	nb := n * s.width
	ns := openNoise(st.Enc, st.RootNonce(), uint64(off)*uint64(s.width), nb)
	defer ns.close()
	for done := 0; done < nb; done += prf.BlockBytes {
		b1 := ns.next()
		m := blockLen(nb, done)
		for o := 0; o < m; o += s.width {
			j := (done + o) / s.width
			s.store(plain, j, s.r.Mul(s.load(cipher, j), s.r.InvPowG(s.noiseExp(b1[:], o/s.width))))
		}
	}
	return nil
}

// Reduce delegates to the shared keyless kernel (internal/core/fold).
func (s *IntProd) Reduce(dst, src []byte, n int) {
	s.fold(dst[:n*s.width], src[:n*s.width])
}
