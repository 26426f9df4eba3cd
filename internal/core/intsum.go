package core

import (
	"encoding/binary"
	"fmt"

	"hear/internal/core/fold"
	"hear/internal/keys"
	"hear/internal/prf"
)

// IntSum implements the integer addition scheme of §5.1.1 (eq. 1) on the
// abelian group Z_{2^width}:
//
//	c_i[j] = x_i[j] + F(k_s_i + k_c + j)                       i = P−1
//	c_i[j] = x_i[j] + F(k_s_i + k_c + j) − F(k_s_{i+1} + k_c + j)  otherwise
//
// The per-rank noises telescope under addition, leaving F(k_s_0 + k_c + j)
// on the aggregate, which decryption subtracts. Modulo-2^b arithmetic makes
// the scheme lossless and zero-inflation; uniqueness and pseudorandomness
// of the noise give IND-CPA security (the Castelluccia et al. argument the
// paper cites). Subtraction rides the same scheme via two's complement.
type IntSum struct {
	width int // element width in bytes: 4 or 8
	name  string
	fold  fold.Func
}

// NewIntSum returns the SUM scheme for 8-, 16-, 32-, or 64-bit integers
// (the paper's schemes are defined for any datatype length d; MPI maps
// MPI_INT8_T/MPI_SHORT/MPI_INT/MPI_LONG onto these widths).
func NewIntSum(widthBits int) (*IntSum, error) {
	if err := checkWidth("core: int-sum", widthBits); err != nil {
		return nil, err
	}
	return &IntSum{
		width: widthBits / 8,
		name:  fmt.Sprintf("int%d-sum", widthBits),
		fold:  fold.Sum(widthBits / 8),
	}, nil
}

func checkWidth(prefix string, got int) error {
	switch got {
	case 8, 16, 32, 64:
		return nil
	}
	return fmt.Errorf("%s: width must be 8, 16, 32, or 64 bits, got %d", prefix, got)
}

// Name is precomputed at construction so the hot-path span checks do not
// format it per call.
func (s *IntSum) Name() string { return s.name }

func (s *IntSum) PlainSize() int  { return s.width }
func (s *IntSum) CipherSize() int { return s.width }

func (s *IntSum) Encrypt(st *keys.RankState, plain, cipher []byte, n int) error {
	return s.EncryptAt(st, plain, cipher, n, 0)
}

func (s *IntSum) EncryptAt(st *keys.RankState, plain, cipher []byte, n, off int) error {
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
	w := intWire{size: s.width}
	for done := 0; done < nb; done += prf.BlockBytes {
		b1 := ns1.next()
		var b2 *[prf.BlockBytes]byte
		if cancel {
			b2 = ns2.next()
		}
		m := blockLen(nb, done)
		switch s.width {
		case 4:
			for o := 0; o < m; o += 4 {
				c := binary.LittleEndian.Uint32(plain[done+o:]) + binary.LittleEndian.Uint32(b1[o:])
				if cancel {
					c -= binary.LittleEndian.Uint32(b2[o:])
				}
				binary.LittleEndian.PutUint32(cipher[done+o:], c)
			}
		case 8:
			for o := 0; o < m; o += 8 {
				c := binary.LittleEndian.Uint64(plain[done+o:]) + binary.LittleEndian.Uint64(b1[o:])
				if cancel {
					c -= binary.LittleEndian.Uint64(b2[o:])
				}
				binary.LittleEndian.PutUint64(cipher[done+o:], c)
			}
		default: // 1- and 2-byte datatypes via the generic word codec
			for o := 0; o < m; o += s.width {
				c := w.load(plain, (done+o)/s.width) + w.load(b1[:], o/s.width)
				if cancel {
					c -= w.load(b2[:], o/s.width)
				}
				w.store(cipher, (done+o)/s.width, c)
			}
		}
	}
	return nil
}

func (s *IntSum) Decrypt(st *keys.RankState, cipher, plain []byte, n int) error {
	return s.DecryptAt(st, cipher, plain, n, 0)
}

func (s *IntSum) DecryptAt(st *keys.RankState, cipher, plain []byte, n, off int) error {
	if err := checkSpan(s.Name(), plain, cipher, n, off, s.width, s.width); err != nil {
		return err
	}
	nb := n * s.width
	ns := openNoise(st.Enc, st.RootNonce(), uint64(off)*uint64(s.width), nb)
	defer ns.close()
	w := intWire{size: s.width}
	for done := 0; done < nb; done += prf.BlockBytes {
		b1 := ns.next()
		m := blockLen(nb, done)
		switch s.width {
		case 4:
			for o := 0; o < m; o += 4 {
				binary.LittleEndian.PutUint32(plain[done+o:],
					binary.LittleEndian.Uint32(cipher[done+o:])-binary.LittleEndian.Uint32(b1[o:]))
			}
		case 8:
			for o := 0; o < m; o += 8 {
				binary.LittleEndian.PutUint64(plain[done+o:],
					binary.LittleEndian.Uint64(cipher[done+o:])-binary.LittleEndian.Uint64(b1[o:]))
			}
		default:
			for o := 0; o < m; o += s.width {
				j := (done + o) / s.width
				w.store(plain, j, w.load(cipher, j)-w.load(b1[:], o/s.width))
			}
		}
	}
	return nil
}

// Reduce delegates to the shared keyless kernel (internal/core/fold), the
// same code the INC switch and the aggregation gateway execute.
func (s *IntSum) Reduce(dst, src []byte, n int) {
	s.fold(dst[:n*s.width], src[:n*s.width])
}
