package hear

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"hear/internal/mpi"
	"hear/internal/prf"
)

func TestFloat64SumAndFixedValidation(t *testing.T) {
	const p = 3
	w, ctxs := initWorld(t, p, Options{})
	err := w.Run(testTimeout, func(c *mpi.Comm) error {
		ctx := ctxs[c.Rank()]
		in := []float64{1.5, -0.5, 1e10}
		out := make([]float64, 3)
		if err := ctx.AllreduceFloat64Sum(c, in, out); err != nil {
			return err
		}
		wants := []float64{4.5, -1.5, 3e10}
		for i, want := range wants {
			if math.Abs(out[i]-want)/math.Abs(want) > 1e-9 {
				return fmt.Errorf("elem %d: %g want %g", i, out[i], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFloat32ProdAndV2(t *testing.T) {
	const p = 2
	w, ctxs := initWorld(t, p, Options{Gamma: 1})
	err := w.Run(testTimeout, func(c *mpi.Comm) error {
		ctx := ctxs[c.Rank()]
		out := make([]float32, 1)
		if err := ctx.AllreduceFloat32Prod(c, []float32{3}, out); err != nil {
			return err
		}
		if math.Abs(float64(out[0])-9) > 1e-3 {
			return fmt.Errorf("prod = %g", out[0])
		}
		if err := ctx.AllreduceFloat32SumV2(c, []float32{1.25}, out); err != nil {
			return err
		}
		if math.Abs(float64(out[0])-2.5) > 1e-3 {
			return fmt.Errorf("sum-v2 = %g", out[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSchemeKindsAllConstructible(t *testing.T) {
	_, ctxs := initWorld(t, 2, Options{Gamma: 2})
	kinds := []SchemeKind{
		Int32Sum, Int64Sum, Int64Prod, Int64Xor,
		Float32Sum, Float32Prod, Float32SumV2,
		Float64Sum, Float64Prod, FixedSum, FixedProd,
	}
	for _, k := range kinds {
		s, err := ctxs[0].Scheme(k)
		if err != nil {
			t.Errorf("%s: %v", k, err)
			continue
		}
		if s.PlainSize() <= 0 || s.CipherSize() <= 0 {
			t.Errorf("%s: degenerate sizes", k)
		}
		// Cached: second lookup returns the same instance.
		s2, err := ctxs[0].Scheme(k)
		if err != nil || s2 != s {
			t.Errorf("%s: not cached", k)
		}
	}
}

func TestRankSizeAccessors(t *testing.T) {
	_, ctxs := initWorld(t, 3, Options{})
	for i, ctx := range ctxs {
		if ctx.Rank() != i || ctx.Size() != 3 {
			t.Errorf("ctx %d: Rank=%d Size=%d", i, ctx.Rank(), ctx.Size())
		}
	}
}

func TestAlternativePRFBackendEndToEnd(t *testing.T) {
	// The whole pipeline on the ChaCha20 backend: §8's extensibility at the
	// public-API level.
	const p = 3
	w, ctxs := initWorld(t, p, Options{PRFBackend: prf.BackendChaCha20})
	err := w.Run(testTimeout, func(c *mpi.Comm) error {
		out := make([]int64, 1)
		if err := ctxs[c.Rank()].AllreduceInt64Sum(c, []int64{int64(c.Rank() + 1)}, out); err != nil {
			return err
		}
		if out[0] != 6 {
			return fmt.Errorf("chacha sum = %d", out[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInitOverCommSplitWorldsDisagreeOnKeys(t *testing.T) {
	// Contexts from different communicators must encrypt identical
	// plaintexts differently (fresh k_c/k_e per communicator).
	const p = 2
	w := mpi.NewWorld(p)
	err := w.Run(testTimeout, func(c *mpi.Comm) error {
		a, err := InitOverComm(c, Options{}, newRankReader(c.Rank()))
		if err != nil {
			return err
		}
		b, err := InitOverComm(c, Options{}, newRankReader(c.Rank()+50))
		if err != nil {
			return err
		}
		sa, err := a.Scheme(Int64Sum)
		if err != nil {
			return err
		}
		sb, err := b.Scheme(Int64Sum)
		if err != nil {
			return err
		}
		plain := binary.LittleEndian.AppendUint64(nil, 42)
		ca := make([]byte, 8)
		cb := make([]byte, 8)
		a.st.Advance()
		b.st.Advance()
		if err := sa.Encrypt(a.st, plain, ca, 1); err != nil {
			return err
		}
		if err := sb.Encrypt(b.st, plain, cb, 1); err != nil {
			return err
		}
		if string(ca) == string(cb) {
			return fmt.Errorf("two communicators share ciphertext for the same plaintext")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
