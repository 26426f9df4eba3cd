package hfp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// bulkFormats covers every cell width and arithmetic path the kernels
// have: 2-byte FP16 and 3-byte BF16 (float-divide quotients, Encode on the
// way in), 4- and 5-byte FP32 (the direct IEEE path), FP32.ForMul(2) and
// ForMul(7) (integer-divide quotients, 7 the widest narrow format),
// FP32.ForMul(8) (the first format past one word), exactly-8-byte
// FP64.ForMul and the 9-byte FP64.ForAdd(2) cell on the wide path.
var bulkFormats = []Format{
	FP16.ForAdd(0),
	FP16.ForMul(0),
	BF16.ForAdd(2),
	FP32.ForAdd(0),
	FP32.ForAdd(2),
	FP32.ForMul(0),
	FP32.ForMul(2),
	FP32.ForMul(7),
	FP32.ForMul(8),
	FP64.ForMul(0),
	FP64.ForAdd(2), // wide: 9-byte cell
}

func TestNarrowFormats(t *testing.T) {
	for _, f := range bulkFormats {
		want := f.Lm <= 23 && f != FP32.ForMul(8)
		if got := NewKernel(f).narrow; got != want {
			t.Errorf("%+v: narrow = %v, want %v", f, got, want)
		}
	}
}

// randomValue draws a Value uniform over the format's packed bit ranges —
// including non-canonical fractions — so pack/unpack identity is tested on
// every representable bit pattern, not just arithmetic results.
func randomValue(rng *rand.Rand, f Format) Value {
	return Value{
		Sign: uint8(rng.Intn(2)),
		Exp:  rng.Uint64() & ((uint64(1) << f.EBits()) - 1),
		Frac: rng.Uint64() & ((uint64(1) << f.FracBits()) - 1),
		W:    uint8(f.FracBits()),
	}
}

func TestKernelPackUnpackMatchesFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, f := range bulkFormats {
		k := NewKernel(f)
		if k.CellSize() != f.ByteSize() {
			t.Fatalf("%+v: CellSize %d != ByteSize %d", f, k.CellSize(), f.ByteSize())
		}
		bufK := make([]byte, k.CellSize())
		bufF := make([]byte, k.CellSize())
		for i := 0; i < 200; i++ {
			v := randomValue(rng, f)
			k.pack(v, bufK)
			f.Pack(v, bufF)
			if !bytes.Equal(bufK, bufF) {
				t.Fatalf("%+v: pack mismatch for %+v: kernel %x format %x", f, v, bufK, bufF)
			}
			got, want := k.unpack(bufF), f.Unpack(bufF)
			if got != want {
				t.Fatalf("%+v: unpack mismatch: kernel %+v format %+v", f, got, want)
			}
		}
	}
}

func TestKernelNoiseMatchesNoiseFromBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	span := make([]byte, 3*NoiseBytes)
	for _, f := range bulkFormats {
		k := NewKernel(f)
		for i := 0; i < 200; i++ {
			rng.Read(span)
			for j := 0; j < 3; j++ {
				if got, want := k.noiseValue(span, j), f.NoiseFromBytes(span[j*NoiseBytes:]); got != want {
					t.Fatalf("%+v: noise mismatch on %x: kernel %+v format %+v", f, span, got, want)
				}
			}
		}
	}
}

// The scalar oracles: the loops the schemes spelled out before the
// kernels, one Format call per step.

func loadFloat(buf []byte, j, ps int) float64 {
	if ps == 8 {
		return math.Float64frombits(binary.LittleEndian.Uint64(buf[j*8:]))
	}
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[j*4:])))
}

func storeFloat(buf []byte, j, ps int, x float64) {
	if ps == 8 {
		binary.LittleEndian.PutUint64(buf[j*8:], math.Float64bits(x))
		return
	}
	binary.LittleEndian.PutUint32(buf[j*4:], math.Float32bits(float32(x)))
}

func sealRef(f Format, ps int, cipher, plain, noise, next []byte, n int) (int, error) {
	cs := f.ByteSize()
	for j := 0; j < n; j++ {
		v, err := f.Encode(loadFloat(plain, j, ps))
		if err != nil {
			return j, err
		}
		nv := f.NoiseFromBytes(noise[j*NoiseBytes:])
		if next != nil {
			nv = f.Div(nv, f.NoiseFromBytes(next[j*NoiseBytes:]))
		}
		f.Pack(f.Mul(v, nv), cipher[j*cs:])
	}
	return 0, nil
}

func openRef(f Format, ps int, plain, cipher, noise []byte, n int) {
	cs := f.ByteSize()
	for j := 0; j < n; j++ {
		v := f.Div(f.Unpack(cipher[j*cs:]), f.NoiseFromBytes(noise[j*NoiseBytes:]))
		storeFloat(plain, j, ps, f.Decode(v))
	}
}

func foldRef(f Format, op func(a, b Value) Value, dst, src []byte, n int) {
	cs := f.ByteSize()
	for j := 0; j < n; j++ {
		o := j * cs
		f.Pack(op(f.Unpack(dst[o:]), f.Unpack(src[o:])), dst[o:])
	}
}

// matrixSizes are the element counts every input class of the bit-identity
// matrices runs at: empty, below, at and above the four elements of one
// keystream block, around 64, and a bulk size. One class per kernel also
// runs at matrixBulk.
var matrixSizes = []int{0, 1, 3, 4, 5, 63, 64, 65, 1000}

const matrixBulk = 65536

// plainClasses are the plaintext input classes of the matrices, as
// generators of element j. Values are float64; the float32 wire rounds
// them on the way in.
var plainClasses = []struct {
	name string
	gen  func(rng *rand.Rand, j int) float64
}{
	{"normals", func(rng *rand.Rand, j int) float64 {
		x := math.Pow(10, -4+8*rng.Float64())
		if rng.Intn(2) == 1 {
			return -x
		}
		return x
	}},
	{"benchmark draw", func(rng *rand.Rand, j int) float64 { return 1 + rng.Float64()*998 }},
	{"zeros", func(rng *rand.Rand, j int) float64 {
		if j%2 == 1 {
			return math.Copysign(0, -1)
		}
		return 0
	}},
	{"float32 subnormals", func(rng *rand.Rand, j int) float64 {
		// e = −127, −128, then random deeper subnormals, both signs.
		switch j % 4 {
		case 0:
			return math.Ldexp(1+rng.Float64(), -127)
		case 1:
			return -math.Ldexp(1+rng.Float64(), -128)
		}
		return float64(math.Float32frombits(rng.Uint32()&0x807fffff | 1))
	}},
	{"float64 subnormals", func(rng *rand.Rand, j int) float64 {
		return math.Float64frombits(rng.Uint64()&0x800fffffffffffff | 1)
	}},
	{"small exponents", func(rng *rand.Rand, j int) float64 {
		return math.Ldexp(1+rng.Float64(), -110-rng.Intn(20)) // straddles float32's and FP32's floor
	}},
	{"mixed signs", func(rng *rand.Rand, j int) float64 { return rng.NormFloat64() * 100 }},
}

func fillClass(ps, n int, seed int64, gen func(*rand.Rand, int) float64) []byte {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, n*ps)
	for j := 0; j < n; j++ {
		storeFloat(buf, j, ps, gen(rng, j))
	}
	return buf
}

func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// checkSeal holds Seal and SealCancel to the oracle on one plaintext
// buffer: same ciphertext bytes, or the same error at the same element
// with the cells before it identical.
func checkSeal(t *testing.T, k *Kernel, plain []byte, n int, seed int64, label string) {
	t.Helper()
	f, cs := k.f, k.CellSize()
	noise := randomBytes(seed, n*NoiseBytes)
	next := randomBytes(seed+1, n*NoiseBytes)
	for _, nx := range [][]byte{nil, next} {
		got := make([]byte, n*cs)
		want := make([]byte, n*cs)
		var gotAt int
		var gotErr error
		if nx == nil {
			gotAt, gotErr = k.Seal(got, plain, noise, n)
		} else {
			gotAt, gotErr = k.SealCancel(got, plain, noise, nx, n)
		}
		wantAt, wantErr := sealRef(f, k.PlainSize(), want, plain, noise, nx, n)
		if (gotErr == nil) != (wantErr == nil) || gotAt != wantAt ||
			(gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%+v %s n=%d cancel=%v: kernel (%d, %v), scalar (%d, %v)",
				f, label, n, nx != nil, gotAt, gotErr, wantAt, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v %s n=%d cancel=%v: seal differs from scalar at element %d",
				f, label, n, nx != nil, firstDiff(got, want)/cs)
		}
	}
}

func checkOpen(t *testing.T, k *Kernel, cipher []byte, n int, seed int64, label string) {
	t.Helper()
	ps := k.PlainSize()
	noise := randomBytes(seed, n*NoiseBytes)
	got := make([]byte, n*ps)
	want := make([]byte, n*ps)
	k.Open(got, cipher, noise, n)
	openRef(k.f, ps, want, cipher, noise, n)
	if !bytes.Equal(got, want) {
		j := firstDiff(got, want) / ps
		t.Fatalf("%+v %s n=%d: open differs from scalar at element %d: %x vs %x",
			k.f, label, n, j, got[j*ps:(j+1)*ps], want[j*ps:(j+1)*ps])
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

func TestSealOpenMatchScalar(t *testing.T) {
	for _, f := range bulkFormats {
		k := NewKernel(f)
		ps, cs := k.PlainSize(), k.CellSize()
		check := func(n, ci int) {
			t.Helper()
			c := plainClasses[ci]
			plain := fillClass(ps, n, int64(ci), c.gen)
			checkSeal(t, k, plain, n, int64(n+ci), c.name)
			// Open what Seal produced under the same noise (a clean round
			// trip) and under other noise (arbitrary quotients).
			cipher := make([]byte, n*cs)
			if _, err := sealRef(f, ps, cipher, plain, randomBytes(int64(n+ci), n*NoiseBytes), nil, n); err == nil {
				checkOpen(t, k, cipher, n, int64(n+ci), c.name+" round trip")
				checkOpen(t, k, cipher, n, 99, c.name+" other noise")
			}
		}
		for _, n := range matrixSizes {
			for ci := range plainClasses {
				check(n, ci)
			}
			// What a hostile peer can send.
			checkOpen(t, k, randomBytes(int64(n), n*cs), n, 7, "random ciphertext")
		}
		if !testing.Short() {
			check(matrixBulk, 1)
		}
	}
}

// The largest finite float of the wire seals on the formats that can hold
// it and fails with ErrRange on the others (FP16's exponent range, BF16's
// rounding up past it); NaN and ±Inf always fail with ErrNotFinite; both
// name the element.
func TestSealErrorsMatchScalar(t *testing.T) {
	for _, f := range bulkFormats {
		k := NewKernel(f)
		ps := k.PlainSize()
		maxFinite := float64(math.MaxFloat32)
		if ps == 8 {
			maxFinite = math.MaxFloat64
		}
		for _, tc := range []struct {
			name string
			x    float64
			is   error
		}{
			{"max finite", maxFinite, ErrRange},
			{"-max finite", -maxFinite, ErrRange},
			{"NaN", math.NaN(), ErrNotFinite},
			{"+Inf", math.Inf(1), ErrNotFinite},
			{"-Inf", math.Inf(-1), ErrNotFinite},
		} {
			const n, at = 7, 5
			plain := fillClass(ps, n, 1, plainClasses[0].gen)
			storeFloat(plain, at, ps, tc.x)
			checkSeal(t, k, plain, n, 3, tc.name)
			j, err := k.Seal(make([]byte, n*k.CellSize()), plain, randomBytes(3, n*NoiseBytes), n)
			if _, encErr := f.Encode(loadFloat(plain, at, ps)); encErr == nil {
				if err != nil { // FP32 and FP64 hold their wire's largest float
					t.Errorf("%+v: %s rejected: %v", f, tc.name, err)
				}
				continue
			}
			if !errors.Is(err, tc.is) || j != at {
				t.Errorf("%+v: %s at element %d: got (%d, %v), want %v", f, tc.name, at, j, err, tc.is)
			}
		}
	}
}

// cellClasses are the operand classes of the fold matrix: pairs of packed
// cells (a into dst, b into src).
var cellClasses = []struct {
	name string
	gen  func(rng *rand.Rand, f Format) (a, b Value)
}{
	{"random cells", func(rng *rand.Rand, f Format) (Value, Value) {
		return randomValue(rng, f), randomValue(rng, f)
	}},
	{"near exponents", func(rng *rand.Rand, f Format) (Value, Value) {
		a, b := randomValue(rng, f), randomValue(rng, f)
		b.Exp = (a.Exp + uint64(rng.Intn(7)) - 3) & f.expMask()
		return a, b
	}},
	{"equal exponents", func(rng *rand.Rand, f Format) (Value, Value) {
		a, b := randomValue(rng, f), randomValue(rng, f)
		b.Exp = a.Exp
		if rng.Intn(4) == 0 {
			b.Frac = a.Frac
		}
		return a, b
	}},
	{"x against -x", func(rng *rand.Rand, f Format) (Value, Value) {
		a := randomValue(rng, f)
		b := a
		b.Sign ^= 1
		return a, b
	}},
	{"half the ring apart", func(rng *rand.Rand, f Format) (Value, Value) {
		a, b := randomValue(rng, f), randomValue(rng, f)
		b.Exp = (a.Exp + uint64(1)<<(f.EBits()-1)) & f.expMask()
		return a, b
	}},
	{"far exponents", func(rng *rand.Rand, f Format) (Value, Value) {
		a, b := randomValue(rng, f), randomValue(rng, f)
		b.Exp = (a.Exp + uint64(f.FracBits()) + uint64(rng.Intn(8))) & f.expMask()
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		return a, b
	}},
}

func TestFoldAddMulMatchReference(t *testing.T) {
	for _, f := range bulkFormats {
		k := NewKernel(f)
		cs := f.ByteSize()
		check := func(dst, src []byte, n int, label string) {
			t.Helper()
			for _, tc := range []struct {
				name string
				fold func(d, s []byte, n int)
				op   func(a, b Value) Value
			}{
				{"FoldAdd", k.FoldAdd, f.Add},
				{"FoldMul", k.FoldMul, f.Mul},
			} {
				got := append([]byte(nil), dst...)
				want := append([]byte(nil), dst...)
				tc.fold(got, src, n)
				foldRef(f, tc.op, want, src, n)
				if !bytes.Equal(got, want) {
					j := firstDiff(got, want) / cs
					t.Fatalf("%+v %s %s n=%d: element %d: %+v ∘ %+v = %+v, kernel %+v", f, tc.name, label, n, j,
						f.Unpack(dst[j*cs:]), f.Unpack(src[j*cs:]), f.Unpack(want[j*cs:]), f.Unpack(got[j*cs:]))
				}
			}
		}
		for _, n := range matrixSizes {
			for ci, c := range cellClasses {
				rng := rand.New(rand.NewSource(int64(n + ci)))
				dst := make([]byte, n*cs)
				src := make([]byte, n*cs)
				for j := 0; j < n; j++ {
					a, b := c.gen(rng, f)
					f.Pack(a, dst[j*cs:])
					f.Pack(b, src[j*cs:])
				}
				check(dst, src, n, c.name)
			}
			// Uniformly random bytes, padding bits included.
			check(randomBytes(int64(n), n*cs), randomBytes(int64(n)+1, n*cs), n, "random bytes")
		}
		if !testing.Short() {
			check(randomBytes(1, matrixBulk*cs), randomBytes(2, matrixBulk*cs), matrixBulk, "random bytes")
		}
	}
}

// No kernel may read or write outside its n cells or n plaintext
// elements: in the engine the bytes on either side belong to another
// shard's goroutine. Writes are caught here by canaries on both sides of
// every output; reads are what `-race ./internal/engine/...` catches.
func TestKernelWritesExactWidth(t *testing.T) {
	const pad = 16
	canary := func(n int) []byte {
		buf := make([]byte, n+2*pad)
		for i := range buf {
			buf[i] = 0xA5
		}
		return buf
	}
	intact := func(buf []byte, label string, f Format, n int) {
		t.Helper()
		for i := 0; i < pad; i++ {
			if buf[i] != 0xA5 || buf[len(buf)-1-i] != 0xA5 {
				t.Fatalf("%+v: %s wrote outside its %d elements", f, label, n)
			}
		}
	}
	for _, f := range bulkFormats {
		k := NewKernel(f)
		ps, cs := k.PlainSize(), k.CellSize()
		for _, n := range []int{1, 3, 4, 5} {
			plain := fillClass(ps, n, 1, plainClasses[0].gen)
			noise := randomBytes(2, n*NoiseBytes)
			next := randomBytes(3, n*NoiseBytes)

			cipher := canary(n * cs)
			if _, err := k.Seal(cipher[pad:], plain, noise, n); err != nil {
				t.Fatal(err)
			}
			intact(cipher, "Seal", f, n)
			if _, err := k.SealCancel(cipher[pad:], plain, noise, next, n); err != nil {
				t.Fatal(err)
			}
			intact(cipher, "SealCancel", f, n)

			out := canary(n * ps)
			k.Open(out[pad:], cipher[pad:], noise, n)
			intact(out, "Open", f, n)

			src := randomBytes(4, n*cs)
			k.FoldAdd(cipher[pad:], src, n)
			intact(cipher, "FoldAdd", f, n)
			k.FoldMul(cipher[pad:], src, n)
			intact(cipher, "FoldMul", f, n)
		}
		one := canary(cs)
		k.pack(randomValue(rand.New(rand.NewSource(5)), f), one[pad:])
		intact(one, "pack", f, 1)
	}
}

// The kernels' per-element cost without a PRF in the loop, beside the
// scalar reference's BenchmarkMulFP32/AddFP32/DivFP32 in hfp_test.go.
func BenchmarkKernelFP32(b *testing.B) {
	const n = 4096
	for _, f := range []Format{FP32.ForAdd(0), FP32.ForMul(0)} {
		k := NewKernel(f)
		plain := fillClass(4, n, 1, plainClasses[1].gen)
		noise := randomBytes(2, n*NoiseBytes)
		next := randomBytes(3, n*NoiseBytes)
		cipher := make([]byte, n*k.CellSize())
		fresh := make([]byte, n*k.CellSize())
		src := make([]byte, n*k.CellSize())
		k.Seal(fresh, plain, noise, n)
		k.Seal(src, fillClass(4, n, 4, plainClasses[1].gen), noise, n)
		out := make([]byte, n*4)
		for _, bc := range []struct {
			name string
			run  func()
		}{
			{"Seal", func() { k.Seal(cipher, plain, noise, n) }},
			{"SealCancel", func() { k.SealCancel(cipher, plain, noise, next, n) }},
			{"Open", func() { k.Open(out, fresh, noise, n) }},
			{"FoldAdd", func() { copy(cipher, fresh); k.FoldAdd(cipher, src, n) }},
			{"FoldMul", func() { copy(cipher, fresh); k.FoldMul(cipher, src, n) }},
		} {
			b.Run(fmt.Sprintf("δ=%d/%s", f.Delta, bc.name), func(b *testing.B) {
				b.SetBytes(n * 4)
				for i := 0; i < b.N; i++ {
					bc.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
			})
		}
	}
}
