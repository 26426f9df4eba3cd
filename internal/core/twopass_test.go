package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"hear/internal/hfp"
	"hear/internal/keys"
)

// The two-pass reference kernels: materialize the full keystream plane(s)
// into pooled scratch, then combine in a second pass. They are the oracle
// of TestFusedMatchesTwoPass — written against Keystream rather than
// prf.BlockSource, so they share no streaming code with the kernels the
// schemes ship. Span checks are the caller's: the test only hands them
// spans the scheme's own EncryptAt/DecryptAt already accepted.

// encryptTwoPass dispatches to s's reference kernel. The wrapper schemes
// (fixed point, sum-v2, parity) have no kernel of their own: their
// reference is their plaintext transform over the inner scheme's.
func encryptTwoPass(s Scheme, st *keys.RankState, plain, cipher []byte, n, off int) error {
	switch s := s.(type) {
	case *IntSum:
		return intSumEncryptTwoPass(s, st, plain, cipher, n, off)
	case *IntXor:
		return intXorEncryptTwoPass(s, st, plain, cipher, n, off)
	case *IntProd:
		return intProdEncryptTwoPass(s, st, plain, cipher, n, off)
	case *NaiveIntSum:
		return naiveEncryptTwoPass(s, st, plain, cipher, n, off)
	case *FloatSum:
		return floatSumEncryptTwoPass(s, st, plain, cipher, n, off)
	case *FloatProd:
		return floatProdEncryptTwoPass(s, st, plain, cipher, n, off)
	case *FloatSumV2:
		w := floatWire{size: s.PlainSize()}
		exp := make([]byte, n*s.PlainSize())
		for j := 0; j < n; j++ {
			w.store(exp, j, math.Exp(w.load(plain, j)))
		}
		return floatProdEncryptTwoPass(s.prod, st, exp, cipher, n, off)
	case *FixedSum:
		words, err := fixedWords(s.codec.Encode, s.inner.width, plain, n)
		if err != nil {
			return err
		}
		return intSumEncryptTwoPass(s.inner, st, words, cipher, n, off)
	case *FixedProd:
		words, err := fixedWords(s.codec.Encode, s.inner.width, plain, n)
		if err != nil {
			return err
		}
		return intProdEncryptTwoPass(s.inner, st, words, cipher, n, off)
	case *ParitySum:
		if st.Rank%2 == 1 {
			w := intWire{size: s.inner.width}
			neg := make([]byte, n*s.inner.width)
			for j := 0; j < n; j++ {
				w.store(neg, j, -w.load(plain, j))
			}
			plain = neg
		}
		return intSumEncryptTwoPass(s.inner, st, plain, cipher, n, off)
	}
	return fmt.Errorf("no two-pass reference for %s", s.Name())
}

// decryptTwoPass is encryptTwoPass's inverse direction.
func decryptTwoPass(s Scheme, st *keys.RankState, cipher, plain []byte, n, off int) error {
	switch s := s.(type) {
	case *IntSum:
		return intSumDecryptTwoPass(s, st, cipher, plain, n, off)
	case *IntXor:
		return intXorDecryptTwoPass(s, st, cipher, plain, n, off)
	case *IntProd:
		return intProdDecryptTwoPass(s, st, cipher, plain, n, off)
	case *NaiveIntSum:
		return naiveDecryptTwoPass(s, st, cipher, plain, n, off)
	case *FloatSum:
		return floatSumDecryptTwoPass(s, st, cipher, plain, n, off)
	case *FloatProd:
		return floatProdDecryptTwoPass(s, st, cipher, plain, n, off)
	case *FloatSumV2:
		if err := floatProdDecryptTwoPass(s.prod, st, cipher, plain, n, off); err != nil {
			return err
		}
		w := floatWire{size: s.PlainSize()}
		for j := 0; j < n; j++ {
			w.store(plain, j, math.Log(w.load(plain, j)))
		}
		return nil
	case *FixedSum:
		words := make([]byte, n*s.inner.width)
		if err := intSumDecryptTwoPass(s.inner, st, cipher, words, n, off); err != nil {
			return err
		}
		iw := intWire{size: s.inner.width}
		for j := 0; j < n; j++ {
			floatWire{size: 8}.store(plain, j, s.codec.DecodeSum(iw.load(words, j)))
		}
		return nil
	case *FixedProd:
		words := make([]byte, n*s.inner.width)
		if err := intProdDecryptTwoPass(s.inner, st, cipher, words, n, off); err != nil {
			return err
		}
		iw := intWire{size: s.inner.width}
		for j := 0; j < n; j++ {
			floatWire{size: 8}.store(plain, j, s.codec.DecodeProd(iw.load(words, j), st.Size))
		}
		return nil
	case *ParitySum:
		return intSumDecryptTwoPass(s.inner, st, cipher, plain, n, off)
	}
	return fmt.Errorf("no two-pass reference for %s", s.Name())
}

// fixedWords quantizes n float64 wire values onto the codec's integer grid.
func fixedWords(encode func(float64) (uint64, error), width int, plain []byte, n int) ([]byte, error) {
	iw := intWire{size: width}
	words := make([]byte, n*width)
	for j := 0; j < n; j++ {
		word, err := encode(floatWire{size: 8}.load(plain, j))
		if err != nil {
			return nil, err
		}
		iw.store(words, j, word)
	}
	return words, nil
}

func intSumEncryptTwoPass(s *IntSum, st *keys.RankState, plain, cipher []byte, n, off int) error {
	nb := n * s.width
	byteOff := uint64(off) * uint64(s.width)
	p1, ks1 := getScratch(nb)
	defer putScratch(p1)
	st.Enc.Keystream(ks1, st.SelfNonce(), byteOff)
	cancel := !st.IsLast()
	var ks2 []byte
	if cancel {
		p2, b := getScratch(nb)
		defer putScratch(p2)
		ks2 = b
		st.Enc.Keystream(ks2, st.NextNonce(), byteOff)
	}
	switch s.width {
	case 4:
		for j := 0; j < n; j++ {
			o := j * 4
			c := binary.LittleEndian.Uint32(plain[o:]) + binary.LittleEndian.Uint32(ks1[o:])
			if cancel {
				c -= binary.LittleEndian.Uint32(ks2[o:])
			}
			binary.LittleEndian.PutUint32(cipher[o:], c)
		}
	case 8:
		for j := 0; j < n; j++ {
			o := j * 8
			c := binary.LittleEndian.Uint64(plain[o:]) + binary.LittleEndian.Uint64(ks1[o:])
			if cancel {
				c -= binary.LittleEndian.Uint64(ks2[o:])
			}
			binary.LittleEndian.PutUint64(cipher[o:], c)
		}
	default: // 1- and 2-byte datatypes via the generic word codec
		w := intWire{size: s.width}
		for j := 0; j < n; j++ {
			c := w.load(plain, j) + w.load(ks1, j)
			if cancel {
				c -= w.load(ks2, j)
			}
			w.store(cipher, j, c)
		}
	}
	return nil
}

func intSumDecryptTwoPass(s *IntSum, st *keys.RankState, cipher, plain []byte, n, off int) error {
	nb := n * s.width
	p1, ks1 := getScratch(nb)
	defer putScratch(p1)
	st.Enc.Keystream(ks1, st.RootNonce(), uint64(off)*uint64(s.width))
	switch s.width {
	case 4:
		for j := 0; j < n; j++ {
			o := j * 4
			binary.LittleEndian.PutUint32(plain[o:],
				binary.LittleEndian.Uint32(cipher[o:])-binary.LittleEndian.Uint32(ks1[o:]))
		}
	case 8:
		for j := 0; j < n; j++ {
			o := j * 8
			binary.LittleEndian.PutUint64(plain[o:],
				binary.LittleEndian.Uint64(cipher[o:])-binary.LittleEndian.Uint64(ks1[o:]))
		}
	default:
		w := intWire{size: s.width}
		for j := 0; j < n; j++ {
			w.store(plain, j, w.load(cipher, j)-w.load(ks1, j))
		}
	}
	return nil
}

func intXorEncryptTwoPass(s *IntXor, st *keys.RankState, plain, cipher []byte, n, off int) error {
	nb := n * s.width
	byteOff := uint64(off) * uint64(s.width)
	p1, ks1 := getScratch(nb)
	defer putScratch(p1)
	st.Enc.Keystream(ks1, st.SelfNonce(), byteOff)
	if st.IsLast() {
		for i := 0; i < nb; i++ {
			cipher[i] = plain[i] ^ ks1[i]
		}
		return nil
	}
	p2, ks2 := getScratch(nb)
	defer putScratch(p2)
	st.Enc.Keystream(ks2, st.NextNonce(), byteOff)
	for i := 0; i < nb; i++ {
		cipher[i] = plain[i] ^ ks1[i] ^ ks2[i]
	}
	return nil
}

func intXorDecryptTwoPass(s *IntXor, st *keys.RankState, cipher, plain []byte, n, off int) error {
	nb := n * s.width
	p1, ks1 := getScratch(nb)
	defer putScratch(p1)
	st.Enc.Keystream(ks1, st.RootNonce(), uint64(off)*uint64(s.width))
	for i := 0; i < nb; i++ {
		plain[i] = cipher[i] ^ ks1[i]
	}
	return nil
}

func intProdEncryptTwoPass(s *IntProd, st *keys.RankState, plain, cipher []byte, n, off int) error {
	nb := n * s.width
	byteOff := uint64(off) * uint64(s.width)
	p1, ks1 := getScratch(nb)
	defer putScratch(p1)
	st.Enc.Keystream(ks1, st.SelfNonce(), byteOff)
	cancel := !st.IsLast()
	var ks2 []byte
	if cancel {
		p2, b := getScratch(nb)
		defer putScratch(p2)
		ks2 = b
		st.Enc.Keystream(ks2, st.NextNonce(), byteOff)
	}
	for j := 0; j < n; j++ {
		noise := s.r.PowG(s.noiseExp(ks1, j))
		if cancel {
			noise = s.r.Mul(noise, s.r.InvPowG(s.noiseExp(ks2, j)))
		}
		s.store(cipher, j, s.r.Mul(s.load(plain, j), noise))
	}
	return nil
}

func intProdDecryptTwoPass(s *IntProd, st *keys.RankState, cipher, plain []byte, n, off int) error {
	nb := n * s.width
	p1, ks1 := getScratch(nb)
	defer putScratch(p1)
	st.Enc.Keystream(ks1, st.RootNonce(), uint64(off)*uint64(s.width))
	for j := 0; j < n; j++ {
		s.store(plain, j, s.r.Mul(s.load(cipher, j), s.r.InvPowG(s.noiseExp(ks1, j))))
	}
	return nil
}

func naiveEncryptTwoPass(s *NaiveIntSum, st *keys.RankState, plain, cipher []byte, n, off int) error {
	nb := n * s.width
	p1, ks := getScratch(nb)
	defer putScratch(p1)
	st.Enc.Keystream(ks, st.SelfNonce(), uint64(off)*uint64(s.width))
	if s.width == 4 {
		for j := 0; j < n; j++ {
			o := j * 4
			binary.LittleEndian.PutUint32(cipher[o:],
				binary.LittleEndian.Uint32(plain[o:])+binary.LittleEndian.Uint32(ks[o:]))
		}
		return nil
	}
	for j := 0; j < n; j++ {
		o := j * 8
		binary.LittleEndian.PutUint64(cipher[o:],
			binary.LittleEndian.Uint64(plain[o:])+binary.LittleEndian.Uint64(ks[o:]))
	}
	return nil
}

// naiveDecryptTwoPass is Θ(P): a full plane and a full second pass per rank.
func naiveDecryptTwoPass(s *NaiveIntSum, st *keys.RankState, cipher, plain []byte, n, off int) error {
	nb := n * s.width
	p1, ks := getScratch(nb)
	defer putScratch(p1)
	copy(plain[:nb], cipher[:nb])
	for _, k := range s.allStarting {
		st.Enc.Keystream(ks, k+st.Collective(), uint64(off)*uint64(s.width))
		if s.width == 4 {
			for j := 0; j < n; j++ {
				o := j * 4
				binary.LittleEndian.PutUint32(plain[o:],
					binary.LittleEndian.Uint32(plain[o:])-binary.LittleEndian.Uint32(ks[o:]))
			}
		} else {
			for j := 0; j < n; j++ {
				o := j * 8
				binary.LittleEndian.PutUint64(plain[o:],
					binary.LittleEndian.Uint64(plain[o:])-binary.LittleEndian.Uint64(ks[o:]))
			}
		}
	}
	return nil
}

func floatSumEncryptTwoPass(s *FloatSum, st *keys.RankState, plain, cipher []byte, n, off int) error {
	cs := s.CipherSize()
	p1, ks := getScratch(n * hfp.NoiseBytes)
	defer putScratch(p1)
	st.Enc.Keystream(ks, st.CollectiveNonce(), uint64(off)*hfp.NoiseBytes)
	w := floatWire{size: s.PlainSize()}
	for j := 0; j < n; j++ {
		v, err := s.f.Encode(w.load(plain, j))
		if err != nil {
			return fmt.Errorf("%s: element %d: %w", s.Name(), j, err)
		}
		noise := s.f.NoiseFromBytes(ks[j*hfp.NoiseBytes:])
		s.f.Pack(s.f.Mul(v, noise), cipher[j*cs:])
	}
	return nil
}

func floatSumDecryptTwoPass(s *FloatSum, st *keys.RankState, cipher, plain []byte, n, off int) error {
	cs := s.CipherSize()
	p1, ks := getScratch(n * hfp.NoiseBytes)
	defer putScratch(p1)
	st.Enc.Keystream(ks, st.CollectiveNonce(), uint64(off)*hfp.NoiseBytes)
	w := floatWire{size: s.PlainSize()}
	for j := 0; j < n; j++ {
		c := s.f.Unpack(cipher[j*cs:])
		noise := s.f.NoiseFromBytes(ks[j*hfp.NoiseBytes:])
		w.store(plain, j, s.f.Decode(s.f.Div(c, noise)))
	}
	return nil
}

func floatProdEncryptTwoPass(s *FloatProd, st *keys.RankState, plain, cipher []byte, n, off int) error {
	cs := s.CipherSize()
	last := st.IsLast()
	byteOff := uint64(off) * hfp.NoiseBytes
	p1, ks1 := getScratch(n * hfp.NoiseBytes)
	defer putScratch(p1)
	st.Enc.Keystream(ks1, st.SelfNonce(), byteOff)
	var ks2 []byte
	if !last {
		p2, b := getScratch(n * hfp.NoiseBytes)
		defer putScratch(p2)
		ks2 = b
		st.Enc.Keystream(ks2, st.NextNonce(), byteOff)
	}
	w := floatWire{size: s.PlainSize()}
	for j := 0; j < n; j++ {
		v, err := s.f.Encode(w.load(plain, j))
		if err != nil {
			return fmt.Errorf("%s: element %d: %w", s.Name(), j, err)
		}
		noise := s.f.NoiseFromBytes(ks1[j*hfp.NoiseBytes:])
		if !last {
			noise = s.f.Div(noise, s.f.NoiseFromBytes(ks2[j*hfp.NoiseBytes:]))
		}
		s.f.Pack(s.f.Mul(v, noise), cipher[j*cs:])
	}
	return nil
}

func floatProdDecryptTwoPass(s *FloatProd, st *keys.RankState, cipher, plain []byte, n, off int) error {
	cs := s.CipherSize()
	p1, ks1 := getScratch(n * hfp.NoiseBytes)
	defer putScratch(p1)
	st.Enc.Keystream(ks1, st.RootNonce(), uint64(off)*hfp.NoiseBytes)
	w := floatWire{size: s.PlainSize()}
	for j := 0; j < n; j++ {
		c := s.f.Unpack(cipher[j*cs:])
		noise := s.f.NoiseFromBytes(ks1[j*hfp.NoiseBytes:])
		w.store(plain, j, s.f.Decode(s.f.Div(c, noise)))
	}
	return nil
}
