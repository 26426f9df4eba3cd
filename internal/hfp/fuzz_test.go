package hfp

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// Fuzz targets complement the property tests: the Go fuzzer explores the
// bit-level corners of the software FPU (denormal-adjacent encodings,
// ring-wrap exponents, rounding boundaries) that uniform random sampling
// rarely hits.

func FuzzPackUnpackRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint64(0))
	f.Add(uint8(1), uint64(1023), uint64((1<<23)-1))
	f.Add(uint8(0), uint64(1<<12), uint64(1<<52-1))
	formats := []Format{FP16.ForAdd(0), BF16.ForAdd(2), FP32.ForMul(0), FP32.ForAdd(2), FP64.ForAdd(2)}
	f.Fuzz(func(t *testing.T, sign uint8, exp, frac uint64) {
		for _, fm := range formats {
			v := Value{
				Sign: sign & 1,
				Exp:  exp & fm.expMask(),
				Frac: frac & ((uint64(1) << fm.FracBits()) - 1),
				W:    uint8(fm.FracBits()),
			}
			buf := make([]byte, fm.ByteSize())
			fm.Pack(v, buf)
			if got := fm.Unpack(buf); got != v {
				t.Fatalf("%+v: %+v -> %+v", fm, v, got)
			}
		}
	})
}

func FuzzEncodeDecodeStable(f *testing.F) {
	f.Add(1.5)
	f.Add(-3.25e10)
	f.Add(5.877471754111438e-39)
	f.Fuzz(func(t *testing.T, x float64) {
		fm := FP64.ForAdd(2)
		v, err := fm.Encode(x)
		if err != nil {
			return // out of range / non-finite, fine
		}
		y := fm.Decode(v)
		// Decode∘Encode must be idempotent (a projection).
		v2, err := fm.Encode(y)
		if err != nil {
			t.Fatalf("re-encode of decoded %g failed: %v", y, err)
		}
		if v2 != v {
			t.Fatalf("Encode not idempotent: %g -> %+v -> %g -> %+v", x, v, y, v2)
		}
	})
}

func FuzzMulDivInverse(f *testing.F) {
	f.Add(uint64(100), uint64(5000), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, fa, fb uint64, ea, eb uint8) {
		fm := FP32.ForMul(0)
		w := uint8(fm.FracBits())
		a := Value{Exp: uint64(ea) & fm.expMask(), Frac: fa & ((1 << fm.FracBits()) - 1), W: w}
		b := Value{Exp: uint64(eb) & fm.expMask(), Frac: fb & ((1 << fm.FracBits()) - 1), W: w, Sign: 1}
		// (a ⊗ b) ⊘ b must return a up to 2 ulp (two roundings).
		got := fm.Div(fm.Mul(a, b), b)
		if got.Sign != a.Sign {
			t.Fatalf("sign flip: %+v * %+v -> %+v", a, b, got)
		}
		// Compare mantissa·2^exp on the ring via a float reconstruction of
		// the ratio got/a, which must be within 2^-21 of 1.
		ma := 1 + float64(a.Frac)/math.Ldexp(1, int(a.W))
		mg := 1 + float64(got.Frac)/math.Ldexp(1, int(got.W))
		de := int64(got.Exp) - int64(a.Exp)
		if de > 1<<7 {
			de -= 1 << 8 // ring wrap on the 8-bit exponent
		}
		if de < -(1 << 7) {
			de += 1 << 8
		}
		ratio := mg / ma * math.Ldexp(1, int(de))
		if math.Abs(ratio-1) > math.Ldexp(1, -int(fm.FracBits())+2) {
			t.Fatalf("(a*b)/b drifted: ratio %g (a=%+v b=%+v got=%+v)", ratio, a, b, got)
		}
	})
}

func FuzzAddCommutesAndBounds(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(10), uint8(20))
	f.Fuzz(func(t *testing.T, fa, fb uint64, ea, eb uint8) {
		fm := FP32.ForAdd(2)
		w := uint8(fm.FracBits())
		a := Value{Exp: uint64(ea) & fm.expMask(), Frac: fa & ((1 << fm.FracBits()) - 1), W: w}
		b := Value{Exp: uint64(eb) & fm.expMask(), Frac: fb & ((1 << fm.FracBits()) - 1), W: w}
		ab := fm.Add(a, b)
		ba := fm.Add(b, a)
		if ab != ba {
			t.Fatalf("Add not commutative: %+v vs %+v", ab, ba)
		}
		if ab.Frac >= 1<<fm.FracBits() || ab.Exp > fm.expMask() {
			t.Fatalf("Add result out of field bounds: %+v", ab)
		}
	})
}

// The kernel targets hold the block kernels to the scalar operations on
// single elements, where the fuzzer can steer every bit: the format picks
// the path (narrow float-divide, narrow integer-divide, wide), the words
// are raw cell, wire and keystream bits.

// fuzzCell lays two words out as one packed cell of f (up to 10 bytes).
func fuzzCell(f Format, lo, hi uint64) []byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:], lo)
	binary.LittleEndian.PutUint64(b[8:], hi)
	return b[:f.ByteSize()]
}

func fuzzNoise(w0, w1 uint64) []byte {
	b := make([]byte, NoiseBytes)
	binary.LittleEndian.PutUint64(b, w0)
	binary.LittleEndian.PutUint64(b[8:], w1)
	return b
}

func FuzzFoldMatchesScalar(f *testing.F) {
	const fp32Add = 3 // bulkFormats index of FP32.ForAdd(0): w = 21, eb = 10
	cell := func(sign, exp, frac uint64) uint64 { return frac | exp<<21 | sign<<31 }
	f.Add(uint8(fp32Add), cell(0, 5, 0x1234), uint64(0), cell(0, 5, 0x1234), uint64(0))           // equal operands
	f.Add(uint8(fp32Add), cell(0, 5, 0x1234), uint64(0), cell(1, 5, 0x1234), uint64(0))           // x against −x
	f.Add(uint8(fp32Add), cell(0, 5, 0x1235), uint64(0), cell(1, 5, 0x1234), uint64(0))           // one ulp survives
	f.Add(uint8(fp32Add), cell(0, 5, 1), uint64(0), cell(0, 5+512, 0x1fffff), uint64(0))          // half the ring apart
	f.Add(uint8(fp32Add), cell(0, 5+512, 0x1fffff), uint64(0), cell(0, 5, 1), uint64(0))          // … the other way round
	f.Add(uint8(fp32Add), cell(1, 1023, 0x1fffff), uint64(0), cell(1, 1023, 0x1fffff), uint64(0)) // carry wraps the ring
	f.Add(uint8(fp32Add), cell(0, 40, 0), uint64(0), cell(1, 17, 1), uint64(0))                   // sticky-only subtrahend
	f.Add(uint8(10), ^uint64(0), ^uint64(0), uint64(1)<<63, uint64(3))                            // 9-byte cell, all fields full
	f.Add(uint8(8), ^uint64(0), uint64(0), ^uint64(0), uint64(0))                                 // first format past one word
	f.Fuzz(func(t *testing.T, fi uint8, a0, a1, b0, b1 uint64) {
		fm := bulkFormats[int(fi)%len(bulkFormats)]
		k := NewKernel(fm)
		a, b := fuzzCell(fm, a0, a1), fuzzCell(fm, b0, b1)
		for _, tc := range []struct {
			name string
			fold func(d, s []byte, n int)
			op   func(x, y Value) Value
		}{{"FoldAdd", k.FoldAdd, fm.Add}, {"FoldMul", k.FoldMul, fm.Mul}} {
			got := append([]byte(nil), a...)
			want := make([]byte, len(a))
			tc.fold(got, b, 1)
			fm.Pack(tc.op(fm.Unpack(a), fm.Unpack(b)), want)
			if !bytes.Equal(got, want) {
				t.Fatalf("%+v %s: %+v ∘ %+v = %+v, kernel %+v",
					fm, tc.name, fm.Unpack(a), fm.Unpack(b), fm.Unpack(want), fm.Unpack(got))
			}
		}
	})
}

func FuzzSealOpenMatchesScalar(f *testing.F) {
	f32 := func(x float32) uint64 { return uint64(math.Float32bits(x)) }
	for fi := range bulkFormats {
		f.Add(uint8(fi), f32(1.337), uint64(1)<<20, uint64(77), uint64(3), uint64(5), uint64(0x3f9d70a4), uint64(0))
	}
	const fp32Add, fp32Mul = 3, 5
	f.Add(uint8(fp32Add), f32(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))                                   // zero → smallest
	f.Add(uint8(fp32Add), uint64(0x80000000), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), uint64(0))                  // −0, every noise bit set
	f.Add(uint8(fp32Mul), uint64(0x00400000), uint64(1), uint64(2), uint64(3), uint64(4), uint64(0x00400000), uint64(0))              // subnormal at e = −127
	f.Add(uint8(fp32Mul), uint64(0x00200000), uint64(1), uint64(2), uint64(3), uint64(4), uint64(0x00000001), uint64(0))              // e = −128; smallest cell
	f.Add(uint8(fp32Mul), uint64(0x7f7fffff), uint64(0x7fffff), uint64(0xff<<1), uint64(0), uint64(0), uint64(0x7f7fffff), uint64(0)) // largest finite, rounding carries
	f.Add(uint8(fp32Mul), uint64(0x7fc00000), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0xff800000), uint64(0))              // NaN; −Inf-shaped cell
	f.Add(uint8(fp32Mul), uint64(0x7f800000), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0x7f800000), uint64(0))              // +Inf
	f.Add(uint8(0), f32(65504), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0xffff), uint64(0))                                // FP16's largest
	f.Add(uint8(0), f32(65536), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0x8000), uint64(0))                                // past FP16's range
	f.Add(uint8(10), math.Float64bits(-2.5e-310), ^uint64(0), ^uint64(0), uint64(1), uint64(1), ^uint64(0), ^uint64(0))               // float64 subnormal, 9-byte cell
	f.Fuzz(func(t *testing.T, fi uint8, word, n0, n1, m0, m1, c0, c1 uint64) {
		fm := bulkFormats[int(fi)%len(bulkFormats)]
		k := NewKernel(fm)
		ps, cs := k.PlainSize(), k.CellSize()
		plain := make([]byte, 8)
		binary.LittleEndian.PutUint64(plain, word)
		noise, next := fuzzNoise(n0, n1), fuzzNoise(m0, m1)
		for _, nx := range [][]byte{nil, next} {
			got, want := make([]byte, cs), make([]byte, cs)
			var errG error
			if nx == nil {
				_, errG = k.Seal(got, plain, noise, 1)
			} else {
				_, errG = k.SealCancel(got, plain, noise, nx, 1)
			}
			_, errW := sealRef(fm, ps, want, plain, noise, nx, 1)
			if (errG == nil) != (errW == nil) || (errG != nil && errG.Error() != errW.Error()) {
				t.Fatalf("%+v seal of %#x: kernel %v, scalar %v", fm, word, errG, errW)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%+v seal of %#x under %x/%x: kernel %x, scalar %x", fm, word, noise, nx, got, want)
			}
		}
		cell := fuzzCell(fm, c0, c1)
		got, want := make([]byte, ps), make([]byte, ps)
		k.Open(got, cell, noise, 1)
		openRef(fm, ps, want, cell, noise, 1)
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v open of %x under %x: kernel %x, scalar %x", fm, cell, noise, got, want)
		}
	})
}
