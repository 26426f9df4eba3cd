package ring

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMask(t *testing.T) {
	cases := []struct {
		b    uint
		want uint64
	}{
		{1, 1}, {4, 0xF}, {8, 0xFF}, {16, 0xFFFF}, {32, 0xFFFFFFFF}, {63, (1 << 63) - 1}, {64, ^uint64(0)},
	}
	for _, c := range cases {
		if got := Mask(c.b); got != c.want {
			t.Errorf("Mask(%d) = %#x, want %#x", c.b, got, c.want)
		}
	}
}

func TestNewZ2Panics(t *testing.T) {
	for _, b := range []uint{0, 65, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZ2(%d) did not panic", b)
				}
			}()
			NewZ2(b)
		}()
	}
}

func TestZ2AddSubRoundTrip(t *testing.T) {
	for _, b := range []uint{4, 8, 16, 32, 64} {
		r := NewZ2(b)
		f := func(x, y uint64) bool {
			x, y = r.Reduce(x), r.Reduce(y)
			return r.Sub(r.Add(x, y), y) == x && r.Add(r.Sub(x, y), y) == x
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("b=%d: %v", b, err)
		}
	}
}

func TestZ2NegIsAdditiveInverse(t *testing.T) {
	r := NewZ2(16)
	f := func(x uint64) bool {
		x = r.Reduce(x)
		return r.Add(x, r.Neg(x)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZ2PowMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, b := range []uint{4, 8, 31, 32, 63, 64} {
		r := NewZ2(b)
		mod := new(big.Int).Lsh(big.NewInt(1), b)
		for i := 0; i < 200; i++ {
			base := rng.Uint64() & r.mask
			exp := rng.Uint64() >> uint(rng.Intn(60))
			want := new(big.Int).Exp(new(big.Int).SetUint64(base), new(big.Int).SetUint64(exp), mod).Uint64()
			if got := r.Pow(base, exp); got != want {
				t.Fatalf("b=%d: Pow(%d, %d) = %d, want %d", b, base, exp, got, want)
			}
		}
	}
}

func TestZ2PowEdgeCases(t *testing.T) {
	r := NewZ2(32)
	if got := r.Pow(5, 0); got != 1 {
		t.Errorf("x^0 = %d, want 1", got)
	}
	if got := r.Pow(0, 0); got != 1 {
		t.Errorf("0^0 = %d, want 1 (convention)", got)
	}
	if got := r.Pow(0, 7); got != 0 {
		t.Errorf("0^7 = %d, want 0", got)
	}
	if got := r.Pow(1, ^uint64(0)); got != 1 {
		t.Errorf("1^max = %d, want 1", got)
	}
}

func TestZ2InvOddUnits(t *testing.T) {
	for _, b := range []uint{4, 8, 16, 32, 64} {
		r := NewZ2(b)
		f := func(x uint64) bool {
			x = r.Reduce(x) | 1 // force odd
			return r.Mul(x, r.Inv(x)) == 1
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("b=%d: %v", b, err)
		}
	}
}

func TestZ2InvPanicsOnEven(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Inv(4) did not panic")
		}
	}()
	NewZ2(16).Inv(4)
}

func TestGeneratorPowersAreUnits(t *testing.T) {
	r := NewZ2(16)
	seen := map[uint64]bool{}
	for e := uint64(0); e < 1<<14; e++ {
		v := r.PowG(e)
		if v&1 == 0 {
			t.Fatalf("3^%d even", e)
		}
		seen[v] = true
	}
	// g = 3 generates the full order-2^{b-2} subgroup.
	if len(seen) != 1<<14 {
		t.Errorf("subgroup size = %d, want %d", len(seen), 1<<14)
	}
}

func TestInvPowGCancelsPowG(t *testing.T) {
	r := NewZ2(32)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		e := rng.Uint64()
		if r.Mul(r.PowG(e), r.InvPowG(e)) != 1 {
			t.Fatalf("g^%d * g^-%d != 1", e, e)
		}
	}
}

func TestSubgroupOrderPeriodicity(t *testing.T) {
	r := NewZ2(8)
	order := r.SubgroupOrder()
	if order != 64 {
		t.Fatalf("order = %d, want 64", order)
	}
	if r.PowG(order) != 1 {
		t.Errorf("g^order = %d, want 1", r.PowG(order))
	}
	if r.PowG(order/2) == 1 {
		t.Errorf("g^(order/2) = 1; order is not minimal")
	}
}

func TestFpAxioms(t *testing.T) {
	f := NewFp(MersennePrime61)
	g := func(x, y uint64) bool {
		x, y = f.Reduce(x), f.Reduce(y)
		if f.Add(x, f.Neg(x)) != 0 {
			return false
		}
		if f.Sub(f.Add(x, y), y) != x {
			return false
		}
		return f.Add(x, y) == f.Add(y, x)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestFpMulMatchesBigInt(t *testing.T) {
	f := NewFp(MersennePrime61)
	p := new(big.Int).SetUint64(f.P)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		x, y := rng.Uint64()%f.P, rng.Uint64()%f.P
		want := new(big.Int).Mul(new(big.Int).SetUint64(x), new(big.Int).SetUint64(y))
		want.Mod(want, p)
		if got := f.Mul(x, y); got != want.Uint64() {
			t.Fatalf("Mul(%d,%d) = %d, want %s", x, y, got, want)
		}
	}
}

func TestFpInv(t *testing.T) {
	f := NewFp(MersennePrime61)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		x := rng.Uint64()%(f.P-1) + 1
		if f.Mul(x, f.Inv(x)) != 1 {
			t.Fatalf("x * x^-1 != 1 for x=%d", x)
		}
	}
}

func TestFpInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Inv(0) did not panic")
		}
	}()
	NewFp(MersennePrime61).Inv(0)
}

func TestFpRejectsBadModulus(t *testing.T) {
	for _, p := range []uint64{0, 1, 2, 4, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFp(%d) did not panic", p)
				}
			}()
			NewFp(p)
		}()
	}
}

// TestMersenne61MatchesFp holds the shift-add Mersenne-61 operations to the
// general-prime Fp (hardware divide) on the edge set squared — values on
// both sides of p, 2p and the word boundary — and on seeded random pairs.
// Mul61 is also exercised on raw operands below its 2^62 bound, where the
// fold can reach 2p (x = p, y = p+2 gives lo&p = p and x·y>>61 = p).
func TestMersenne61MatchesFp(t *testing.T) {
	const p = MersennePrime61
	f := NewFp(p)
	check := func(x, y uint64) {
		t.Helper()
		if got, want := Reduce61(x), f.Reduce(x); got != want {
			t.Fatalf("Reduce61(%#x) = %#x, want %#x", x, got, want)
		}
		rx, ry := f.Reduce(x), f.Reduce(y)
		if got, want := Add61(rx, ry), f.Add(rx, ry); got != want {
			t.Fatalf("Add61(%#x, %#x) = %#x, want %#x", rx, ry, got, want)
		}
		if got, want := Sub61(rx, ry), f.Sub(rx, ry); got != want {
			t.Fatalf("Sub61(%#x, %#x) = %#x, want %#x", rx, ry, got, want)
		}
		if got, want := Mul61(rx, ry), f.Mul(rx, ry); got != want {
			t.Fatalf("Mul61(%#x, %#x) = %#x, want %#x", rx, ry, got, want)
		}
		if x < 1<<62 && y < 1<<62 {
			if got, want := Mul61(x, y), f.Mul(x, y); got != want {
				t.Fatalf("Mul61(%#x, %#x) unreduced = %#x, want %#x", x, y, got, want)
			}
		}
	}
	edges := []uint64{0, 1, p - 1, p, p + 1, p + 2, 2 * p, 1 << 61, 1<<62 - 1, 1 << 63, 1<<64 - 1}
	for _, x := range edges {
		for _, y := range edges {
			check(x, y)
		}
	}
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 100000; i++ {
		x, y := rng.Uint64(), rng.Uint64()
		check(x, y)
		check(x>>2, y>>2) // raw operands under Mul61's bound
	}
}

func BenchmarkZ2Pow(b *testing.B) {
	r := NewZ2(64)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Pow(3, uint64(i)|0x8000000000000000)
	}
	_ = sink
}

func BenchmarkZ2Inv(b *testing.B) {
	r := NewZ2(64)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Inv(uint64(i) | 1)
	}
	_ = sink
}

func BenchmarkFpMul(b *testing.B) {
	f := NewFp(MersennePrime61)
	var sink uint64 = 12345
	for i := 0; i < b.N; i++ {
		sink = f.Mul(sink, 987654321)
	}
	_ = sink
}
