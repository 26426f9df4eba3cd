package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"hear/internal/fixedpoint"
	"hear/internal/keys"
)

// floatWire reads and writes IEEE floats by element index: 8-byte float64,
// the fixed point schemes' plaintext, or 4-byte float32. FloatSumV2 takes
// its exponentials and logarithms through it; FloatSum and FloatProd do
// not touch it — hfp.Kernel reads their wire itself.
type floatWire struct{ size int }

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

// FixedSum implements fixed point addition (§5.2): float64 wire values are
// quantized to a shared integer grid (the implicit scaling factor agreed
// before computation) and ride the lossless integer SUM scheme. Lossiness
// is exactly the quantization of the codec; the encryption itself is
// lossless and IND-CPA like the integer scheme it wraps.
type FixedSum struct {
	codec fixedpoint.Codec
	name  string
	inner *IntSum
}

// NewFixedSum builds the scheme with the given codec. The codec's width
// selects the underlying integer scheme width (32 or 64 bits).
func NewFixedSum(codec fixedpoint.Codec) (*FixedSum, error) {
	inner, err := NewIntSum(int(codec.Width))
	if err != nil {
		return nil, fmt.Errorf("core: fixed-sum: %w", err)
	}
	return &FixedSum{
		codec: codec,
		name:  fmt.Sprintf("fixed%d.%d-sum", codec.Width, codec.Frac),
		inner: inner,
	}, nil
}

func (s *FixedSum) Name() string            { return s.name }
func (s *FixedSum) PlainSize() int          { return 8 }
func (s *FixedSum) CipherSize() int         { return s.inner.CipherSize() }
func (s *FixedSum) Codec() fixedpoint.Codec { return s.codec }

func (s *FixedSum) Encrypt(st *keys.RankState, plain, cipher []byte, n int) error {
	return s.EncryptAt(st, plain, cipher, n, 0)
}

func (s *FixedSum) EncryptAt(st *keys.RankState, plain, cipher []byte, n, off int) error {
	if err := checkSpan(s.Name(), plain, cipher, n, off, s.PlainSize(), s.CipherSize()); err != nil {
		return err
	}
	w := floatWire{size: 8}
	iw := intWire{size: s.inner.width}
	p1, scratch := getScratch(n * s.inner.width)
	defer putScratch(p1)
	for j := 0; j < n; j++ {
		word, err := s.codec.Encode(w.load(plain, j))
		if err != nil {
			return fmt.Errorf("%s: element %d: %w", s.Name(), j, err)
		}
		iw.store(scratch, j, word)
	}
	return s.inner.EncryptAt(st, scratch, cipher, n, off)
}

func (s *FixedSum) Decrypt(st *keys.RankState, cipher, plain []byte, n int) error {
	return s.DecryptAt(st, cipher, plain, n, 0)
}

func (s *FixedSum) DecryptAt(st *keys.RankState, cipher, plain []byte, n, off int) error {
	if err := checkSpan(s.Name(), plain, cipher, n, off, s.PlainSize(), s.CipherSize()); err != nil {
		return err
	}
	p1, scratch := getScratch(n * s.inner.width)
	defer putScratch(p1)
	if err := s.inner.DecryptAt(st, cipher, scratch, n, off); err != nil {
		return err
	}
	w := floatWire{size: 8}
	iw := intWire{size: s.inner.width}
	for j := 0; j < n; j++ {
		w.store(plain, j, s.codec.DecodeSum(iw.load(scratch, j)))
	}
	return nil
}

func (s *FixedSum) Reduce(dst, src []byte, n int) { s.inner.Reduce(dst, src, n) }

// FixedProd implements fixed point multiplication (§5.2). The aggregated
// product of P factors carries scale 2^(P·Frac); Decrypt uses the
// communicator size to rescale, exactly as the paper prescribes ("the
// number of involved processes can be used to obtain the correct output
// scaling factor").
type FixedProd struct {
	codec fixedpoint.Codec
	name  string
	inner *IntProd
}

// NewFixedProd builds the multiplicative fixed point scheme.
func NewFixedProd(codec fixedpoint.Codec) (*FixedProd, error) {
	inner, err := NewIntProd(int(codec.Width))
	if err != nil {
		return nil, fmt.Errorf("core: fixed-prod: %w", err)
	}
	return &FixedProd{
		codec: codec,
		name:  fmt.Sprintf("fixed%d.%d-prod", codec.Width, codec.Frac),
		inner: inner,
	}, nil
}

func (s *FixedProd) Name() string    { return s.name }
func (s *FixedProd) PlainSize() int  { return 8 }
func (s *FixedProd) CipherSize() int { return s.inner.CipherSize() }

func (s *FixedProd) Encrypt(st *keys.RankState, plain, cipher []byte, n int) error {
	return s.EncryptAt(st, plain, cipher, n, 0)
}

func (s *FixedProd) EncryptAt(st *keys.RankState, plain, cipher []byte, n, off int) error {
	if err := checkSpan(s.Name(), plain, cipher, n, off, s.PlainSize(), s.CipherSize()); err != nil {
		return err
	}
	w := floatWire{size: 8}
	iw := intWire{size: s.inner.width}
	p1, scratch := getScratch(n * s.inner.width)
	defer putScratch(p1)
	for j := 0; j < n; j++ {
		word, err := s.codec.Encode(w.load(plain, j))
		if err != nil {
			return fmt.Errorf("%s: element %d: %w", s.Name(), j, err)
		}
		iw.store(scratch, j, word)
	}
	return s.inner.EncryptAt(st, scratch, cipher, n, off)
}

func (s *FixedProd) Decrypt(st *keys.RankState, cipher, plain []byte, n int) error {
	return s.DecryptAt(st, cipher, plain, n, 0)
}

func (s *FixedProd) DecryptAt(st *keys.RankState, cipher, plain []byte, n, off int) error {
	if err := checkSpan(s.Name(), plain, cipher, n, off, s.PlainSize(), s.CipherSize()); err != nil {
		return err
	}
	p1, scratch := getScratch(n * s.inner.width)
	defer putScratch(p1)
	if err := s.inner.DecryptAt(st, cipher, scratch, n, off); err != nil {
		return err
	}
	w := floatWire{size: 8}
	iw := intWire{size: s.inner.width}
	for j := 0; j < n; j++ {
		w.store(plain, j, s.codec.DecodeProd(iw.load(scratch, j), st.Size))
	}
	return nil
}

func (s *FixedProd) Reduce(dst, src []byte, n int) { s.inner.Reduce(dst, src, n) }

// intWire reads/writes little-endian integer words of 1, 2, 4, or 8 bytes.
type intWire struct{ size int }

func (w intWire) load(buf []byte, j int) uint64 {
	o := j * w.size
	var v uint64
	for i := 0; i < w.size; i++ {
		v |= uint64(buf[o+i]) << (8 * uint(i))
	}
	return v
}

func (w intWire) store(buf []byte, j int, v uint64) {
	for i := 0; i < w.size; i++ {
		buf[j*w.size+i] = byte(v >> (8 * uint(i)))
	}
}
