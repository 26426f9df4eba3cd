package hfp

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// This file is the block form of the software FPU: what the float schemes
// run per keystream block and per reduce. The scalar Encode/Mul/Div/Add/
// Pack/Unpack in hfp.go and arith.go are the specification — general over
// every operand width, one Value at a time — and every kernel here is held
// byte for byte to them by the tests. A Kernel fixes the format once, so
// its loops carry no Format or Value copies and, for every format whose
// significand products fit one machine word (the "narrow" formats: all of
// FP16 and BF16, and FP32 but for its γ = 8 multiplication format), no
// 128-bit arithmetic:
//
//   - ⊗ is one 64-bit multiply, ⊘ one 64-bit divide (see quotient);
//   - a float32 on the wire is split into sign, exponent and fraction by
//     shift and mask when the format keeps all of its bits (Lm = 23), and
//     assembled the same way on the way out; anything but a normal number
//     takes Format.Encode / Format.Decode, so zero, subnormals, NaN, ±Inf
//     and out-of-range results behave exactly as the scalar path defines;
//   - rounding and the larger-operand choice of ⊞ are arithmetic, not
//     branches: on ciphertext both are coin flips a predictor loses.
//
// The remaining formats (FP64 and custom shapes with 128-bit products, 9-
// and 10-byte cells) run the scalar operations behind the same entry
// points.

// Kernel runs the float schemes' element loops for one Format. It is
// immutable after NewKernel and safe for concurrent use.
type Kernel struct {
	f      Format
	ps     int  // plaintext width in bytes: 4 (float32) when Lm ≤ 23, else 8 (float64)
	cs     int  // ciphertext cell width in bytes
	narrow bool // one-word mantissa arithmetic, float32 wire
	direct bool // narrow, Lm = 23 and Le = 8: a normal float32 encodes by shift and mask

	w, eb    uint   // ciphertext fraction and exponent widths
	lm       uint   // plaintext fraction width
	one      uint64 // hidden one of a ciphertext significand, 1 << w
	fracMask uint64
	expMask  uint64
	halfRing uint64 // 1 << (eb-1): the distance at which d12 = d21 ≠ 0
}

// The float32 wire's layout, compile-time constants of the narrow loops.
const (
	f32Frac    = 23
	f32ExpMax  = 0xff
	f32Bias    = 127
	f32FracMax = 1<<f32Frac - 1
)

// NewKernel builds the kernel for f, which must have passed Validate.
func NewKernel(f Format) *Kernel {
	w, eb := f.FracBits(), f.EBits()
	k := &Kernel{
		f:        f,
		ps:       4,
		cs:       f.ByteSize(),
		w:        w,
		eb:       eb,
		lm:       f.Lm,
		one:      1 << w,
		fracMask: 1<<w - 1,
		expMask:  1<<eb - 1,
		halfRing: 1 << (eb - 1),
	}
	if f.Lm > f32Frac {
		k.ps = 8
	}
	// The widest narrow intermediates are the seal product, (Lm+1)+(w+1)
	// bits plus the rounding increment, and the quotient numerator,
	// (w+1)+(w+3) bits: w ≤ 30 keeps both inside a word for any Lm ≤ 23.
	k.narrow = k.ps == 4 && w <= 30
	k.direct = k.narrow && f.Lm == f32Frac && f.Le == 8
	return k
}

// PlainSize is the width of one plaintext element on the wire: 4 bytes
// (float32) for formats of at most 23 fraction bits, else 8 (float64).
// Go has no native half type; FP16 and BF16 precision is enforced by the
// HFP mantissa width, not the wire type.
func (k *Kernel) PlainSize() int { return k.ps }

// CellSize is the width of one packed ciphertext cell, Format.ByteSize.
func (k *Kernel) CellSize() int { return k.cs }

// loadCell reads one packed cell of cs bytes with loads that add up to
// exactly cs. Exact width matters to sharded callers: an 8-byte load on a
// 5-byte cell would read past a shard boundary into bytes another
// goroutine is writing.
func loadCell(b []byte, cs int) uint64 {
	switch cs {
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 5:
		return uint64(binary.LittleEndian.Uint32(b)) | uint64(b[4])<<32
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 8:
		return binary.LittleEndian.Uint64(b)
	}
	return loadOddCell(b, cs)
}

// storeCell writes exactly cs bytes (see loadCell on why exact).
func storeCell(b []byte, cs int, v uint64) {
	switch cs {
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 5:
		binary.LittleEndian.PutUint32(b, uint32(v))
		b[4] = byte(v >> 32)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	default:
		storeOddCell(b, cs, v)
	}
}

// loadOddCell and storeOddCell serve the widths no shipped scheme pairs
// with a hot loop (1, 3, 6 and 7 bytes).
func loadOddCell(b []byte, cs int) uint64 {
	var v uint64
	for i := cs - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func storeOddCell(b []byte, cs int, v uint64) {
	for i := 0; i < cs; i++ {
		b[i] = byte(v >> (8 * uint(i)))
	}
}

// loadPlain and storePlain move plaintext element j between the wire and
// the float64 that Format.Encode takes and Format.Decode returns: the path
// of every element the narrow loops do not assemble themselves (zero,
// subnormals, NaN, ±Inf, out-of-range and γ-widened results, formats that
// do not keep the whole float32) and of every element of a wide format.
func (k *Kernel) loadPlain(plain []byte, j int) float64 {
	if k.ps == 4 {
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(plain[j*4:])))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(plain[j*8:]))
}

func (k *Kernel) storePlain(plain []byte, j int, x float64) {
	if k.ps == 4 {
		binary.LittleEndian.PutUint32(plain[j*4:], math.Float32bits(float32(x)))
	} else {
		binary.LittleEndian.PutUint64(plain[j*8:], math.Float64bits(x))
	}
}

// noiseWords reads element j's two keystream words (NoiseFromBytes's).
func noiseWords(noise []byte, j int) (w0, w1 uint64) {
	b := noise[j*NoiseBytes : j*NoiseBytes+NoiseBytes]
	return binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])
}

// nonzero is 1 if x != 0, else 0, without a branch.
func nonzero(x uint64) uint64 { return (x | -x) >> 63 }

// The narrow arithmetic. Three conventions keep it short:
//
//   - A rounded significand keeps its hidden one: out ∈ [2^w, 2^(w+1)],
//     the top value meaning the rounding reached 2.0. Adding out to
//     (exp−1) << w then delivers both at once — the hidden one restores
//     the exponent, a rounding carry increments it and leaves a zero
//     fraction — which is how hardware FPUs assemble a result too.
//   - Ring exponents are reduced once, when a cell is assembled: the sums
//     and differences before that may carry sign and padding bits above
//     the field.
//   - Every variable shift count is under 64 by construction and written
//     `& 63`: the mask is what the hardware does anyway, and it spares the
//     compare-and-select Go otherwise emits to give oversize shifts their
//     defined result.

// roundProduct is the rounding half of Mul on one word. p is a product of
// two significands carrying sh+w fraction bits, so p ∈ [2^(sh+w),
// 2^(sh+w+2)); top reports whether it reached 2.0 (bit ptop = sh+w+1). A
// product below 2.0 is doubled — exact — so that both cases drop sh+1
// bits, and rounded to nearest even without a branch: adding half−1+lsb
// carries into the kept bits exactly when the dropped bits exceed half, or
// equal it with the kept lsb odd.
func roundProduct(p uint64, sh, ptop uint) (out, top uint64) {
	top = p >> (ptop & 63)
	p += p & (top - 1)
	return (p + uint64(1)<<(sh&63) - 1 + p>>((sh+1)&63)&1) >> ((sh + 1) & 63), top
}

// round3 rounds a significand carrying w+3 fraction bits to w, nearest
// even, with sticky (0 or 1) standing for nonzero bits below it: sticky
// becomes one more low bit and the roundProduct rule applies.
func round3(sig, sticky uint64) uint64 {
	x := sig<<1 | sticky
	return (x + 7 + x>>4&1) >> 4
}

// quotient is the mantissa half of Div on one word, as Div computes it:
// for two (w+1)-bit significands ma, mb ≥ 2^w, q = ⌊ma·2^(w+3) / mb⌋ ∈
// (2^(w+2), 2^(w+4)) is normalized to w+3 fraction bits (below reports a
// quotient under 1.0, which costs the exponent one) and rounded to w with
// the remainder as sticky — the exact quotient, rounded once to nearest
// even. w ≤ 30 keeps the numerator inside 64 bits.
func quotient(ma, mb uint64, w uint) (out, below uint64) {
	num := ma << ((w + 3) & 63)
	q := num / mb
	below = q>>((w+3)&63) ^ 1
	return round3(q<<below, nonzero(num-q*mb)), below
}

// sum is Add on two packed narrow cells.
//
// Ordering: take the cells without their signs as the integers e‖f. Their
// difference U = (a − b) mod 2^(w+eb) is d12·2^w + (fa − fb), so it lies
// in the lower half of its range exactly when d12 is in the lower half of
// the ring and not zero — a is the shorter way round from b — or d12 = 0
// and fa ≥ fb: the cases in which Add takes a as the larger operand. The
// exception is d12 exactly half the ring (d12 = d21 ≠ 0), where neither
// distance is the true one and U falls on either side with the mantissas;
// Add picks b there whatever they say, and so does the second term of the
// swap mask.
func (k *Kernel) sum(a, b uint64) uint64 {
	w, tb := k.w&63, (k.w+k.eb)&63
	fm, em, one, sbit := k.fracMask, k.expMask, k.one, k.one<<(k.eb&63)
	d12 := (a>>w - b>>w) & em
	bLarger := (a-b)>>((tb-1)&63)&1 | ((d12^k.halfRing)-1)>>63
	swap := (a ^ b) & -bLarger
	l, s := a^swap, b^swap // larger, smaller

	const guard = 3
	ml := (one | l&fm) << guard
	ms := (one | s&fm) << guard
	// Past 63 the shift leaves nothing of ms but its sticky bit, as at 63.
	shift := min((l>>w-s>>w)&em, 63)
	sticky := nonzero(ms & (uint64(1)<<shift - 1))
	ms >>= shift
	exp := l >> w

	var mag uint64
	if (l^s)&sbit == 0 {
		t := ml + ms
		c := t >> ((w + guard + 1) & 63) // 1 iff the sum is in [2, 4)
		mag = (exp+c-1)<<w + round3(t>>(c&1), sticky|t&c)
	} else if sig := ml - ms - sticky; sig != 0 {
		// Opposite signs: a nonzero tail below the guard bits borrowed one
		// ulp and stays nonzero. Renormalize left.
		n := (uint(bits.LeadingZeros64(sig)) - (63 - guard - w)) & 63
		mag = (exp-uint64(n)-1)<<w + round3(sig<<n, sticky)
	} else {
		// Cancellation. There is no zero on the ring (§5.3.6): the result
		// is a value negligible at the operands' scale, positive when the
		// cancellation was exact.
		return (exp-uint64(w)-2)<<w&(sbit-1) | l&(sticky<<tb)
	}
	return mag&(sbit-1) | l&sbit
}

// Seal encrypts n plaintext elements under one noise stream:
// cipher[j] = plain[j] ⊗ noise[j], with noise holding NoiseBytes of
// keystream per element. It returns the index of the first element Encode
// rejects, with the error.
func (k *Kernel) Seal(cipher, plain, noise []byte, n int) (int, error) {
	if !k.narrow {
		return k.sealWide(cipher, plain, noise, n)
	}
	// The kernel's constants in locals: stores through cipher may alias *k
	// as far as the compiler knows, so fields would be reloaded per element.
	w, tb, lm, cs := k.w&63, (k.w+k.eb)&63, k.lm, k.cs
	fm, one, direct := k.fracMask, k.one, k.direct
	for j := 0; j < n; j++ {
		word := uint64(binary.LittleEndian.Uint32(plain[j*4:]))
		e := word >> f32Frac & f32ExpMax
		sign, exp, frac := word>>31, e-f32Bias, word&f32FracMax
		if !direct || e-1 >= f32ExpMax-1 {
			v, err := k.f.Encode(k.loadPlain(plain, j))
			if err != nil {
				return j, err
			}
			sign, exp, frac = uint64(v.Sign), v.Exp, v.Frac
		}
		w0, w1 := noiseWords(noise, j)
		out, top := roundProduct((uint64(1)<<(lm&63)|frac)*(one|w0&fm), lm, lm+w+1)
		mag := (exp+w1>>1+top-1)<<w + out
		storeCell(cipher[j*cs:], cs, mag&(uint64(1)<<tb-1)|(sign^w1)&1<<tb)
	}
	return 0, nil
}

// SealCancel is Seal under two streams, the product scheme's canceling
// rank: cipher[j] = plain[j] ⊗ (noise[j] ⊘ next[j]). The quotients are
// written out in the keystream's own layout, one block's worth at a time,
// and sealed as a noise stream.
func (k *Kernel) SealCancel(cipher, plain, noise, next []byte, n int) (int, error) {
	const block = 4
	var q [block * NoiseBytes]byte
	for done := 0; done < n; done += block {
		m := min(block, n-done)
		o := done * NoiseBytes
		k.noiseQuotient(q[:], noise[o:], next[o:], m)
		if bad, err := k.Seal(cipher[done*k.cs:], plain[done*k.ps:], q[:], m); err != nil {
			return done + bad, err
		}
	}
	return 0, nil
}

// noiseQuotient writes noise[j] ⊘ next[j] for n elements into q as noise
// words: the fraction in the first, the sign under the exponent in the
// second — what noiseWords and noiseValue read back.
func (k *Kernel) noiseQuotient(q, noise, next []byte, n int) {
	for j := 0; j < n; j++ {
		var frac, sign, exp uint64
		if k.narrow {
			w0, w1 := noiseWords(noise, j)
			v0, v1 := noiseWords(next, j)
			out, below := quotient(k.one|w0&k.fracMask, k.one|v0&k.fracMask, k.w)
			frac, sign = out&k.fracMask, (w1^v1)&1
			exp = w1>>1 - v1>>1 - below + out>>((k.w+1)&63)
		} else {
			v := k.f.Div(k.noiseValue(noise, j), k.noiseValue(next, j))
			frac, sign, exp = v.Frac, uint64(v.Sign), v.Exp
		}
		binary.LittleEndian.PutUint64(q[j*NoiseBytes:], frac)
		binary.LittleEndian.PutUint64(q[j*NoiseBytes+8:], sign|exp<<1)
	}
}

// Open decrypts n cells: plain[j] = cipher[j] ⊘ noise[j].
func (k *Kernel) Open(plain, cipher, noise []byte, n int) {
	if !k.narrow {
		k.openWide(plain, cipher, noise, n)
		return
	}
	w, tb, up, cs := k.w&63, (k.w+k.eb)&63, (64-k.eb)&63, k.cs
	fm, one := k.fracMask, k.one
	// The float32 word is assembled in place when there are no fraction
	// bits to round away and the ring is wide enough that a rounding carry
	// out of its largest exponent lands outside float32's range, not, by
	// wrapping, inside it.
	inPlace := k.w <= f32Frac && k.eb >= 8
	for j := 0; j < n; j++ {
		c := loadCell(cipher[j*cs:], cs)
		w0, w1 := noiseWords(noise, j)
		out, below := quotient(one|c&fm, one|w0&fm, w)
		sign, exp := (c>>tb^w1)&1, c>>w-w1>>1-below
		// As in a cell, out's hidden one and rounding carry add into the
		// exponent field; field is then the final biased exponent.
		word := (uint64(int64(exp<<up)>>up)+f32Bias-1)<<f32Frac + out<<((f32Frac-w)&63)
		if field := word >> f32Frac; inPlace && field-1 < f32ExpMax-1 {
			binary.LittleEndian.PutUint32(plain[j*4:], uint32(sign<<31|word))
		} else {
			v := Value{Sign: uint8(sign), Exp: (exp + out>>((w+1)&63)) & k.expMask, Frac: out & fm, W: uint8(k.w)}
			k.storePlain(plain, j, k.f.Decode(v))
		}
	}
}

// FoldAdd folds n packed src cells into dst elementwise with the
// ring-exponent addition ⊞ — the float SUM v1 reduce.
func (k *Kernel) FoldAdd(dst, src []byte, n int) {
	if !k.narrow {
		k.foldWide(k.f.Add, dst, src, n)
		return
	}
	cs := k.cs
	for j := 0; j < n; j++ {
		o := j * cs
		storeCell(dst[o:], cs, k.sum(loadCell(dst[o:], cs), loadCell(src[o:], cs)))
	}
}

// FoldMul is FoldAdd for ⊗ — the float PROD (and SUM v2) reduce.
func (k *Kernel) FoldMul(dst, src []byte, n int) {
	if !k.narrow {
		k.foldWide(k.f.Mul, dst, src, n)
		return
	}
	w, cs := k.w&63, k.cs
	fm, one, sbit := k.fracMask, k.one, k.one<<(k.eb&63)
	for j := 0; j < n; j++ {
		o := j * cs
		a, b := loadCell(dst[o:], cs), loadCell(src[o:], cs)
		out, top := roundProduct((one|a&fm)*(one|b&fm), w, 2*w+1)
		mag := (a>>w+b>>w+top-1)<<w + out
		storeCell(dst[o:], cs, mag&(sbit-1)|(a^b)&sbit)
	}
}

// The wide path: the scalar operations on Values, for formats whose
// products need 128 bits.

// unpack and pack are Format.Unpack and Format.Pack with the layout
// hoisted; cells wider than one word use the generic codec.
func (k *Kernel) unpack(src []byte) Value {
	if k.cs > 8 {
		return k.f.Unpack(src)
	}
	c := loadCell(src, k.cs)
	return Value{
		Frac: c & k.fracMask,
		Exp:  c >> k.w & k.expMask,
		Sign: uint8(c >> (k.w + k.eb) & 1),
		W:    uint8(k.w),
	}
}

func (k *Kernel) pack(v Value, dst []byte) {
	if k.cs > 8 {
		k.f.Pack(v, dst)
		return
	}
	storeCell(dst, k.cs, v.Frac&k.fracMask|(v.Exp&k.expMask)<<k.w|uint64(v.Sign)<<(k.w+k.eb))
}

func (k *Kernel) noiseValue(noise []byte, j int) Value {
	w0, w1 := noiseWords(noise, j)
	return Value{Sign: uint8(w1 & 1), Exp: w1 >> 1 & k.expMask, Frac: w0 & k.fracMask, W: uint8(k.w)}
}

func (k *Kernel) sealWide(cipher, plain, noise []byte, n int) (int, error) {
	for j := 0; j < n; j++ {
		v, err := k.f.Encode(k.loadPlain(plain, j))
		if err != nil {
			return j, err
		}
		k.pack(k.f.Mul(v, k.noiseValue(noise, j)), cipher[j*k.cs:])
	}
	return 0, nil
}

func (k *Kernel) openWide(plain, cipher, noise []byte, n int) {
	for j := 0; j < n; j++ {
		v := k.f.Div(k.unpack(cipher[j*k.cs:]), k.noiseValue(noise, j))
		k.storePlain(plain, j, k.f.Decode(v))
	}
}

func (k *Kernel) foldWide(op func(a, b Value) Value, dst, src []byte, n int) {
	for j := 0; j < n; j++ {
		o := j * k.cs
		k.pack(op(k.unpack(dst[o:]), k.unpack(src[o:])), dst[o:])
	}
}
