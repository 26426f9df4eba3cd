package core

import (
	"encoding/binary"
	"fmt"

	"hear/internal/core/fold"
	"hear/internal/keys"
	"hear/internal/prf"
)

// IntXor implements the logical/binary XOR scheme of §5.1.3 (eq. 3):
//
//	c_i[j] = x_i[j] ⊕ F(k_s_i+k_c+j)                          i = P−1
//	c_i[j] = x_i[j] ⊕ F(k_s_i+k_c+j) ⊕ F(k_s_{i+1}+k_c+j)     otherwise
//
// XOR is its own inverse, so the telescoping and the decryption are both
// plain XORs — the scheme is byte-oriented and equivalent to AES-CTR
// stream encryption with structured counters (IND-CPA per the paper's
// citation of the AES-CTR argument). MPI_LXOR on 0/1-valued logicals and
// MPI_BXOR on raw words both ride this scheme; the width parameter only
// fixes the wire element size.
type IntXor struct {
	width int
	name  string
}

// NewIntXor returns the XOR scheme for 8-, 16-, 32-, or 64-bit words
// (XOR is width-agnostic; the width only fixes the wire element size).
func NewIntXor(widthBits int) (*IntXor, error) {
	if err := checkWidth("core: int-xor", widthBits); err != nil {
		return nil, err
	}
	return &IntXor{width: widthBits / 8, name: fmt.Sprintf("int%d-xor", widthBits)}, nil
}

func (s *IntXor) Name() string { return s.name }

func (s *IntXor) PlainSize() int  { return s.width }
func (s *IntXor) CipherSize() int { return s.width }

func (s *IntXor) Encrypt(st *keys.RankState, plain, cipher []byte, n int) error {
	return s.EncryptAt(st, plain, cipher, n, 0)
}

func (s *IntXor) EncryptAt(st *keys.RankState, plain, cipher []byte, n, off int) error {
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
		if cancel {
			// Fold the canceling stream into the staged block first; the
			// combining loop below then runs one XOR chain either way.
			b2 := ns2.next()
			for o := 0; o < prf.BlockBytes; o += 8 {
				binary.LittleEndian.PutUint64(b1[o:],
					binary.LittleEndian.Uint64(b1[o:])^binary.LittleEndian.Uint64(b2[o:]))
			}
		}
		m := blockLen(nb, done)
		xorBlock(cipher[done:done+m], plain[done:done+m], b1)
	}
	return nil
}

// xorBlock writes dst = src ^ ks for one (possibly partial) streaming
// block: whole 8-byte words first, then the byte tail.
func xorBlock(dst, src []byte, ks *[prf.BlockBytes]byte) {
	m := len(dst)
	o := 0
	for ; o+8 <= m; o += 8 {
		binary.LittleEndian.PutUint64(dst[o:],
			binary.LittleEndian.Uint64(src[o:])^binary.LittleEndian.Uint64(ks[o:]))
	}
	for ; o < m; o++ {
		dst[o] = src[o] ^ ks[o]
	}
}

func (s *IntXor) Decrypt(st *keys.RankState, cipher, plain []byte, n int) error {
	return s.DecryptAt(st, cipher, plain, n, 0)
}

func (s *IntXor) DecryptAt(st *keys.RankState, cipher, plain []byte, n, off int) error {
	if err := checkSpan(s.Name(), plain, cipher, n, off, s.width, s.width); err != nil {
		return err
	}
	nb := n * s.width
	ns := openNoise(st.Enc, st.RootNonce(), uint64(off)*uint64(s.width), nb)
	defer ns.close()
	for done := 0; done < nb; done += prf.BlockBytes {
		b1 := ns.next()
		m := blockLen(nb, done)
		xorBlock(plain[done:done+m], cipher[done:done+m], b1)
	}
	return nil
}

// Reduce delegates to the shared keyless kernel (internal/core/fold).
func (s *IntXor) Reduce(dst, src []byte, n int) {
	fold.Xor(dst[:n*s.width], src[:n*s.width])
}
