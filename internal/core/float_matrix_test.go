package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hear/internal/hfp"
	"hear/internal/keys"
	"hear/internal/prf"
)

// The bit-identity matrix of the float kernels against the scalar oracle:
// every float scheme's EncryptAt/DecryptAt/Reduce, which run hfp.Kernel
// one keystream block at a time, against the two-pass references of
// twopass_test.go, which materialize the keystream and call
// hfp.Format.Encode/NoiseFromBytes/Mul/Div/Add/Pack/Unpack/Decode per
// element. (internal/hfp holds the kernels to the same oracle without a
// PRF in the loop, over more fold operand classes.)

// floatMatrixSchemes are internal/hfp's bulkFormats as schemes: 2-, 3-, 4-,
// 5-, 8- and 9-byte cells, both wires, float-divide and integer-divide
// quotients, the direct IEEE path and the Encode path, one- and two-stream
// seals.
func floatMatrixSchemes(t *testing.T) []Scheme {
	t.Helper()
	var out []Scheme
	add := func(s Scheme, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	add(NewFloatSum(hfp.FP16, 0))
	add(NewFloatProd(hfp.FP16, 0))
	add(NewFloatSum(hfp.BF16, 2))
	add(NewFloatSum(hfp.FP32, 0))
	add(NewFloatSum(hfp.FP32, 2))
	add(NewFloatProd(hfp.FP32, 0))
	add(NewFloatProd(hfp.FP32, 2))
	add(NewFloatProd(hfp.FP64, 0))
	add(NewFloatSum(hfp.FP64, 2))
	return out
}

// floatClass is one plaintext input class: a generator of element j.
type floatClass struct {
	name string
	gen  func(rng *rand.Rand, j int) float64
}

var floatClasses = []floatClass{
	{"normals", func(rng *rand.Rand, j int) float64 {
		x := math.Pow(10, -4+8*rng.Float64())
		if rng.Intn(2) == 1 {
			return -x
		}
		return x
	}},
	{"benchmark draw", func(rng *rand.Rand, j int) float64 { return 1 + rng.Float64()*998 }},
	{"zeros", func(rng *rand.Rand, j int) float64 { return math.Copysign(0, float64(1-2*(j%2))) }},
	{"float32 subnormals", func(rng *rand.Rand, j int) float64 {
		switch j % 4 {
		case 0:
			return math.Ldexp(1+rng.Float64(), -127)
		case 1:
			return -math.Ldexp(1+rng.Float64(), -128)
		}
		return float64(math.Float32frombits(rng.Uint32()&0x807fffff | 1))
	}},
	{"mixed signs", func(rng *rand.Rand, j int) float64 { return rng.NormFloat64() * 100 }},
	{"x against -x", func(rng *rand.Rand, j int) float64 { return 1 + float64(j%97)/64 }},
}

// fillFloats writes n elements of class c on s's wire; rank decides the
// sign of the "x against -x" class so that a fold cancels exactly.
func fillFloats(s Scheme, c floatClass, n, rank int) []byte {
	rng := rand.New(rand.NewSource(int64(n)))
	w := floatWire{size: s.PlainSize()}
	buf := make([]byte, n*s.PlainSize())
	for j := 0; j < n; j++ {
		x := c.gen(rng, j)
		if c.name == "x against -x" && rank%2 == 1 {
			x = -x
		}
		w.store(buf, j, x)
	}
	return buf
}

// largestFinite is the wire's largest finite float: a legal plaintext of
// the FP32 and FP64 bases, out of range for FP16 and BF16.
func largestFinite(s Scheme) float64 {
	if s.PlainSize() == 4 {
		return math.MaxFloat32
	}
	return math.MaxFloat64
}

func floatFormat(s Scheme) hfp.Format {
	switch s := s.(type) {
	case *FloatSum:
		return s.f
	case *FloatProd:
		return s.f
	}
	panic("not a float scheme")
}

func TestFloatKernelsMatchScalarOracle(t *testing.T) {
	backends := []string{prf.BackendAESFast, prf.BackendAESScalar, prf.BackendChaCha20, prf.BackendSHA1}
	// Empty, below, at and above one keystream block (4 elements), around
	// the block source's 64-element staging buffer — at every offset — and
	// two bulk sizes at an offset that starts mid-block.
	sizes := []int{0, 1, 3, 4, 5, 63, 64, 65}
	offs := []int{0, 1, 7, 1000}
	const ranks = 3
	for bi, backend := range backends {
		states := genStatesBackend(t, ranks, backend)
		for _, st := range states {
			st.Advance()
		}
		// The backends differ in the keystream's bytes, not in what the
		// kernels do with them: the default backend runs every class, the
		// others the two that reach the most paths.
		classes := floatClasses
		if bi > 0 {
			classes = []floatClass{floatClasses[0], floatClasses[3]}
		}
		for _, s := range floatMatrixSchemes(t) {
			for _, c := range classes {
				for _, n := range sizes {
					for _, off := range offs {
						checkFloatRound(t, s, states, c, n, off, backend)
					}
				}
				checkFloatRound(t, s, states, c, 1000, 7, backend)
			}
			if bi == 0 && strings.Contains(s.Name(), "γ=0") && !testing.Short() {
				checkFloatRound(t, s, states, floatClasses[1], 65536, 1000, backend)
			}
			checkHostileCiphertext(t, s, states, backend)
		}
	}
}

// checkFloatRound runs one allreduce of class c over states' ranks (first,
// middle, last) at (n, off), kernel against oracle at every step: each
// rank's encrypt, each fold in rank order, each rank's decrypt.
func checkFloatRound(t *testing.T, s Scheme, states []*keys.RankState, c floatClass, n, off int, backend string) {
	t.Helper()
	cs, ps := s.CipherSize(), s.PlainSize()
	label := fmt.Sprintf("%s/%s %s n=%d off=%d", backend, s.Name(), c.name, n, off)
	ciphers := make([][]byte, len(states))
	for rank, st := range states {
		plain := fillFloats(s, c, n, rank)
		got, want := make([]byte, n*cs), make([]byte, n*cs)
		errG := s.EncryptAt(st, plain, got, n, off)
		errW := encryptTwoPass(s, st, plain, want, n, off)
		if errG != nil || errW != nil {
			t.Fatalf("%s rank=%d: encrypt kernel=%v oracle=%v", label, rank, errG, errW)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s rank=%d: encrypt diverges from the oracle", label, rank)
		}
		ciphers[rank] = got
	}
	agg := append([]byte(nil), ciphers[0]...)
	ref := append([]byte(nil), ciphers[0]...)
	for rank := 1; rank < len(states); rank++ {
		s.Reduce(agg, ciphers[rank], n)
		reduceScalar(s, ref, ciphers[rank], n)
		if !bytes.Equal(agg, ref) {
			t.Fatalf("%s: reduce of rank %d diverges from the oracle", label, rank)
		}
	}
	for rank, st := range states {
		got, want := make([]byte, n*ps), make([]byte, n*ps)
		errG := s.DecryptAt(st, agg, got, n, off)
		errW := decryptTwoPass(s, st, agg, want, n, off)
		if errG != nil || errW != nil {
			t.Fatalf("%s rank=%d: decrypt kernel=%v oracle=%v", label, rank, errG, errW)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s rank=%d: decrypt diverges from the oracle", label, rank)
		}
	}
}

// reduceScalar is Reduce spelled out on the scalar API.
func reduceScalar(s Scheme, dst, src []byte, n int) {
	f, cs := floatFormat(s), s.CipherSize()
	op := f.Mul
	if _, ok := s.(*FloatSum); ok {
		op = f.Add
	}
	for j := 0; j < n; j++ {
		o := j * cs
		f.Pack(op(f.Unpack(dst[o:]), f.Unpack(src[o:])), dst[o:])
	}
}

// checkHostileCiphertext feeds Reduce and Decrypt uniformly random bytes —
// what a peer without the keys can send. Neither may panic, and both must
// still agree with the oracle.
func checkHostileCiphertext(t *testing.T, s Scheme, states []*keys.RankState, backend string) {
	t.Helper()
	const n, off = 257, 3
	cs, ps := s.CipherSize(), s.PlainSize()
	rng := rand.New(rand.NewSource(11))
	a, b := make([]byte, n*cs), make([]byte, n*cs)
	rng.Read(a)
	rng.Read(b)
	ref := append([]byte(nil), a...)
	s.Reduce(a, b, n)
	reduceScalar(s, ref, b, n)
	if !bytes.Equal(a, ref) {
		t.Fatalf("%s/%s: reduce of random bytes diverges from the oracle", backend, s.Name())
	}
	got, want := make([]byte, n*ps), make([]byte, n*ps)
	if err := s.DecryptAt(states[0], b, got, n, off); err != nil {
		t.Fatal(err)
	}
	if err := decryptTwoPass(s, states[0], b, want, n, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s/%s: decrypt of random bytes diverges from the oracle", backend, s.Name())
	}
}

// NaN and ±Inf plaintext is refused with hfp.ErrNotFinite, and a value past
// the base format's exponent range with hfp.ErrRange, both naming the
// element relative to the call; the wire's largest finite float is a legal
// plaintext of the bases that can hold it.
func TestFloatKernelsRejectUnrepresentable(t *testing.T) {
	states := genStates(t, 2)
	for _, st := range states {
		st.Advance()
	}
	const n, at, off = 11, 6, 9 // the bad element sits in the call's second keystream block
	for _, s := range floatMatrixSchemes(t) {
		for _, tc := range []struct {
			name string
			x    float64
			is   error
		}{
			{"NaN", math.NaN(), hfp.ErrNotFinite},
			{"+Inf", math.Inf(1), hfp.ErrNotFinite},
			{"-Inf", math.Inf(-1), hfp.ErrNotFinite},
			{"largest finite", largestFinite(s), hfp.ErrRange},
		} {
			for rank, st := range states {
				plain := fillFloats(s, floatClasses[0], n, rank)
				floatWire{size: s.PlainSize()}.store(plain, at, tc.x)
				got, want := make([]byte, n*s.CipherSize()), make([]byte, n*s.CipherSize())
				errG := s.EncryptAt(st, plain, got, n, off)
				errW := encryptTwoPass(s, st, plain, want, n, off)
				if (errG == nil) != (errW == nil) || (errG != nil && errG.Error() != errW.Error()) {
					t.Fatalf("%s %s rank=%d: kernel %v, oracle %v", s.Name(), tc.name, rank, errG, errW)
				}
				if errG == nil { // FP32 and FP64 hold their wire's largest float
					if tc.is != hfp.ErrRange || floatFormat(s).Le < 8 {
						t.Errorf("%s: %s accepted", s.Name(), tc.name)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s %s rank=%d: encrypt diverges from the oracle", s.Name(), tc.name, rank)
					}
					continue
				}
				if !errors.Is(errG, tc.is) || !strings.Contains(errG.Error(), fmt.Sprintf("element %d:", at)) {
					t.Errorf("%s %s: got %q, want element %d wrapping %v", s.Name(), tc.name, errG, at, tc.is)
				}
			}
		}
	}
}

// FloatSumV2 stages e^x in fixed blocks; spans that end inside, at and
// past a staging block must agree with the whole-span oracle, and its
// range error must name the element relative to the call.
func TestFloatSumV2StagingMatchesOracle(t *testing.T) {
	states := genStates(t, 3)
	for _, st := range states {
		st.Advance()
	}
	small := floatClass{"small", func(rng *rand.Rand, j int) float64 { return rng.NormFloat64() * 3 }}
	for _, base := range []hfp.Format{hfp.FP32, hfp.FP64} {
		s, err := NewFloatSumV2(base, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, v2StageElems - 1, v2StageElems, v2StageElems + 1, 3*v2StageElems + 5} {
			for _, off := range []int{0, 7} {
				for rank, st := range states {
					plain := fillFloats(s, small, n, rank)
					got, want := make([]byte, n*s.CipherSize()), make([]byte, n*s.CipherSize())
					if err := s.EncryptAt(st, plain, got, n, off); err != nil {
						t.Fatal(err)
					}
					if err := encryptTwoPass(s, st, plain, want, n, off); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s n=%d off=%d rank=%d: encrypt diverges from the oracle", s.Name(), n, off, rank)
					}
					gotP, wantP := make([]byte, n*s.PlainSize()), make([]byte, n*s.PlainSize())
					if err := s.DecryptAt(st, got, gotP, n, off); err != nil {
						t.Fatal(err)
					}
					if err := decryptTwoPass(s, st, got, wantP, n, off); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gotP, wantP) {
						t.Fatalf("%s n=%d off=%d rank=%d: decrypt diverges from the oracle", s.Name(), n, off, rank)
					}
				}
			}
		}
		const n, at = 2*v2StageElems + 3, v2StageElems + 2
		plain := fillFloats(s, small, n, 0)
		floatWire{size: s.PlainSize()}.store(plain, at, 1e4)
		err = s.EncryptAt(states[0], plain, make([]byte, n*s.CipherSize()), n, 5)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("element %d: e^10000 outside dynamic range", at)) {
			t.Errorf("%s: e^10000 at element %d of the call: got %v", s.Name(), at, err)
		}
	}
}
