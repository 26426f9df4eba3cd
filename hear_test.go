package hear

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hear/internal/adversary"
	"hear/internal/inc"
	"hear/internal/mpi"
)

const testTimeout = 60 * time.Second

// seqReader is a deterministic entropy source for reproducible tests.
type seqReader struct{ next byte }

func (r *seqReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = r.next*89 + 13
		r.next++
	}
	return len(p), nil
}

func initWorld(t testing.TB, size int, opts Options) (*mpi.World, []*Context) {
	t.Helper()
	if opts.Rand == nil {
		opts.Rand = &seqReader{next: 1}
	}
	w := mpi.NewWorld(size)
	ctxs, err := Init(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w, ctxs
}

func TestInt64SumAcrossWorld(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		w, ctxs := initWorld(t, p, Options{})
		const n = 200
		err := w.Run(testTimeout, func(c *mpi.Comm) error {
			rng := rand.New(rand.NewSource(int64(c.Rank())))
			data := make([]int64, n)
			for j := range data {
				data[j] = int64(rng.Uint64())
			}
			out := make([]int64, n)
			if err := ctxs[c.Rank()].AllreduceInt64Sum(c, data, out); err != nil {
				return err
			}
			// Recompute expected on every rank (wrapping).
			want := make([]int64, n)
			for r := 0; r < p; r++ {
				rr := rand.New(rand.NewSource(int64(r)))
				for j := range want {
					want[j] += int64(rr.Uint64())
				}
			}
			for j := range want {
				if out[j] != want[j] {
					return fmt.Errorf("rank %d elem %d: got %d, want %d", c.Rank(), j, out[j], want[j])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestInt32SumExact(t *testing.T) {
	w, ctxs := initWorld(t, 4, Options{})
	err := w.Run(testTimeout, func(c *mpi.Comm) error {
		data := []int32{int32(c.Rank() + 1), -int32(c.Rank() + 1), math.MaxInt32}
		out := make([]int32, 3)
		if err := ctxs[c.Rank()].AllreduceInt32Sum(c, data, out); err != nil {
			return err
		}
		if out[0] != 10 || out[1] != -10 {
			return fmt.Errorf("got %v", out)
		}
		// 4 × MaxInt32 wraps mod 2^32.
		four := uint32(4)
		want := int32(uint32(math.MaxInt32) * four)
		if out[2] != want {
			return fmt.Errorf("wrap: got %d, want %d", out[2], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUint64ProdAndXor(t *testing.T) {
	w, ctxs := initWorld(t, 3, Options{})
	err := w.Run(testTimeout, func(c *mpi.Comm) error {
		ctx := ctxs[c.Rank()]
		prodIn := []uint64{uint64(c.Rank()*2 + 3)} // 3, 5, 7
		prodOut := make([]uint64, 1)
		if err := ctx.AllreduceUint64Prod(c, prodIn, prodOut); err != nil {
			return err
		}
		if prodOut[0] != 105 {
			return fmt.Errorf("prod = %d, want 105", prodOut[0])
		}
		xorIn := []uint64{uint64(0xF0F << (4 * c.Rank()))}
		xorOut := make([]uint64, 1)
		if err := ctx.AllreduceUint64Xor(c, xorIn, xorOut); err != nil {
			return err
		}
		want := uint64(0xF0F) ^ (0xF0F << 4) ^ (0xF0F << 8)
		if xorOut[0] != want {
			return fmt.Errorf("xor = %#x, want %#x", xorOut[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFloat32SumAccuracy(t *testing.T) {
	for _, gamma := range []uint{0, 2} {
		w, ctxs := initWorld(t, 6, Options{Gamma: gamma})
		const n = 64
		err := w.Run(testTimeout, func(c *mpi.Comm) error {
			rng := rand.New(rand.NewSource(int64(c.Rank() + 100)))
			data := make([]float32, n)
			for j := range data {
				data[j] = rng.Float32() + 0.25
			}
			out := make([]float32, n)
			if err := ctxs[c.Rank()].AllreduceFloat32Sum(c, data, out); err != nil {
				return err
			}
			want := make([]float64, n)
			for r := 0; r < 6; r++ {
				rr := rand.New(rand.NewSource(int64(r + 100)))
				for j := range want {
					want[j] += float64(rr.Float32() + 0.25)
				}
			}
			tol := 64 * math.Ldexp(1, -21+int(gamma))
			for j := range want {
				rel := math.Abs(float64(out[j])-want[j]) / want[j]
				if rel > tol {
					return fmt.Errorf("γ=%d elem %d: got %g, want %g (rel %g)", gamma, j, out[j], want[j], rel)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestFloat64ProdAndSumV2(t *testing.T) {
	w, ctxs := initWorld(t, 4, Options{})
	err := w.Run(testTimeout, func(c *mpi.Comm) error {
		ctx := ctxs[c.Rank()]
		in := []float64{1.5, 0.75}
		out := make([]float64, 2)
		if err := ctx.AllreduceFloat64Prod(c, in, out); err != nil {
			return err
		}
		if math.Abs(out[0]-5.0625) > 1e-12 || math.Abs(out[1]-0.31640625) > 1e-12 {
			return fmt.Errorf("prod = %v", out)
		}
		in2 := []float64{0.5, -0.25}
		out2 := make([]float64, 2)
		if err := ctx.AllreduceFloat64SumV2(c, in2, out2); err != nil {
			return err
		}
		if math.Abs(out2[0]-2.0) > 1e-10 || math.Abs(out2[1]+1.0) > 1e-10 {
			return fmt.Errorf("sum-v2 = %v", out2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFixedSumAndProd(t *testing.T) {
	w, ctxs := initWorld(t, 3, Options{FixedPointFrac: 16})
	err := w.Run(testTimeout, func(c *mpi.Comm) error {
		ctx := ctxs[c.Rank()]
		in := []float64{1.25}
		out := make([]float64, 1)
		if err := ctx.AllreduceFixedSum(c, in, out); err != nil {
			return err
		}
		if out[0] != 3.75 {
			return fmt.Errorf("fixed sum = %g", out[0])
		}
		in2 := []float64{2.0}
		out2 := make([]float64, 1)
		if err := ctx.AllreduceFixedProd(c, in2, out2); err != nil {
			return err
		}
		if out2[0] != 8.0 {
			return fmt.Errorf("fixed prod = %g", out2[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBoolOrAnd(t *testing.T) {
	w, ctxs := initWorld(t, 4, Options{})
	err := w.Run(testTimeout, func(c *mpi.Comm) error {
		ctx := ctxs[c.Rank()]
		// elem0: all true; elem1: only rank 2 true; elem2: all false.
		in := []bool{true, c.Rank() == 2, false}
		orOut := make([]bool, 3)
		if err := ctx.AllreduceBoolOr(c, in, orOut); err != nil {
			return err
		}
		if !orOut[0] || !orOut[1] || orOut[2] {
			return fmt.Errorf("OR = %v", orOut)
		}
		andOut := make([]bool, 3)
		if err := ctx.AllreduceBoolAnd(c, in, andOut); err != nil {
			return err
		}
		if !andOut[0] || andOut[1] || andOut[2] {
			return fmt.Errorf("AND = %v", andOut)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedMatchesBlocking(t *testing.T) {
	const p, n = 4, 10000
	wPlain, plainCtxs := initWorld(t, p, Options{})
	wPipe, pipeCtxs := initWorld(t, p, Options{PipelineBlockBytes: 4096})
	results := make([][]int64, 2)
	for i, cfg := range []struct {
		w    *mpi.World
		ctxs []*Context
	}{{wPlain, plainCtxs}, {wPipe, pipeCtxs}} {
		out := make([]int64, n)
		err := cfg.w.Run(testTimeout, func(c *mpi.Comm) error {
			data := make([]int64, n)
			for j := range data {
				data[j] = int64(c.Rank()*1000 + j)
			}
			res := make([]int64, n)
			if err := cfg.ctxs[c.Rank()].AllreduceInt64Sum(c, data, res); err != nil {
				return err
			}
			if c.Rank() == 0 {
				copy(out, res)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		results[i] = out
	}
	for j := range results[0] {
		if results[0][j] != results[1][j] {
			t.Fatalf("elem %d: blocking %d != pipelined %d", j, results[0][j], results[1][j])
		}
	}
}

func TestPipelinedFloatSum(t *testing.T) {
	const p, n = 3, 5000
	w, ctxs := initWorld(t, p, Options{PipelineBlockBytes: 2048, Gamma: 2})
	err := w.Run(testTimeout, func(c *mpi.Comm) error {
		data := make([]float32, n)
		for j := range data {
			data[j] = float32(j%100) + 1.5
		}
		out := make([]float32, n)
		if err := ctxs[c.Rank()].AllreduceFloat32Sum(c, data, out); err != nil {
			return err
		}
		for j := range out {
			want := float32(p) * (float32(j%100) + 1.5)
			if math.Abs(float64(out[j]-want))/float64(want) > 1e-5 {
				return fmt.Errorf("elem %d: got %g, want %g", j, out[j], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestINCPath(t *testing.T) {
	const p = 8
	sumFold := func(dst, src []byte) {
		for o := 0; o+8 <= len(dst); o += 8 {
			a := uint64(0)
			b := uint64(0)
			for i := 0; i < 8; i++ {
				a |= uint64(dst[o+i]) << (8 * i)
				b |= uint64(src[o+i]) << (8 * i)
			}
			s := a + b
			for i := 0; i < 8; i++ {
				dst[o+i] = byte(s >> (8 * i))
			}
		}
	}
	tree, err := inc.NewTree(p, 4, sumFold)
	if err != nil {
		t.Fatal(err)
	}
	tap := &captureTap{}
	tree.SetTap(tap)
	w, ctxs := initWorld(t, p, Options{INC: tree})
	err = w.Run(testTimeout, func(c *mpi.Comm) error {
		data := []int64{int64(c.Rank() + 1), 42}
		out := make([]int64, 2)
		if err := ctxs[c.Rank()].AllreduceInt64Sum(c, data, out); err != nil {
			return err
		}
		if out[0] != p*(p+1)/2 || out[1] != 42*p {
			return fmt.Errorf("INC result %v", out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The tap captured ciphertext only: the plaintext constant 42 must not
	// be recoverable from any frame at its lane position.
	if tap.sawPlain(42) {
		t.Error("plaintext lane visible on the INC tap")
	}
}

type captureTap struct {
	mu     sync.Mutex
	frames [][]byte
}

func (c *captureTap) Observe(switchID, from int, up bool, frame []byte) {
	cp := make([]byte, len(frame))
	copy(cp, frame)
	c.mu.Lock()
	c.frames = append(c.frames, cp)
	c.mu.Unlock()
}

func (c *captureTap) sawPlain(v uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.frames {
		if len(f) >= 16 {
			lane := uint64(0)
			for i := 0; i < 8; i++ {
				lane |= uint64(f[8+i]) << (8 * i)
			}
			if lane == v {
				return true
			}
		}
	}
	return false
}

func TestVerifiedSumDetectsHonestAndTampered(t *testing.T) {
	const p = 4
	w, ctxs := initWorld(t, p, Options{})
	verifier, err := NewVerifier(0x1234567)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(testTimeout, func(c *mpi.Comm) error {
		data := []int64{int64(c.Rank()), 7, -1}
		out := make([]int64, 3)
		if err := ctxs[c.Rank()].AllreduceInt64SumVerified(c, verifier, data, out); err != nil {
			return err
		}
		if out[0] != 6 || out[1] != 28 || out[2] != -4 {
			return fmt.Errorf("verified sum = %v", out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestContextCommMismatch(t *testing.T) {
	w, ctxs := initWorld(t, 2, Options{})
	err := w.Run(testTimeout, func(c *mpi.Comm) error {
		wrong := ctxs[(c.Rank()+1)%2]
		err := wrong.AllreduceInt64Sum(c, []int64{1}, make([]int64, 1))
		if err == nil {
			return fmt.Errorf("mismatched context accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestArgumentValidation(t *testing.T) {
	w, ctxs := initWorld(t, 2, Options{})
	err := w.Run(testTimeout, func(c *mpi.Comm) error {
		ctx := ctxs[c.Rank()]
		if err := ctx.AllreduceInt64Sum(c, []int64{1, 2}, make([]int64, 1)); err == nil {
			return fmt.Errorf("short recv accepted")
		}
		if err := ctx.AllreduceInt64Sum(c, nil, nil); err == nil {
			return fmt.Errorf("empty send accepted")
		}
		if err := ctx.AllreduceFloat32Sum(c, []float32{float32(math.NaN())}, make([]float32, 1)); err == nil {
			return fmt.Errorf("NaN accepted")
		}
		if _, err := ctx.Scheme("nope"); err == nil {
			return fmt.Errorf("unknown scheme kind accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInitErrors(t *testing.T) {
	w := mpi.NewWorld(2)
	if _, err := Init(w, Options{PRFBackend: "bogus"}); err == nil {
		t.Error("bogus PRF backend accepted")
	}
	if _, err := Init(w, Options{PipelineBlockBytes: -1, Rand: &seqReader{}}); err == nil {
		// negative block just disables pipelining? It must not silently
		// corrupt; Init should reject it.
		t.Error("negative pipeline block accepted")
	}
}

// Without an INC tree the reduction needs a communicator: a nil one must be
// refused with an error, not a nil dereference inside mpi, and before the
// key epoch advances — on the plain and the verified path alike.
func TestNilCommunicatorIsAnError(t *testing.T) {
	_, ctxs := initWorld(t, 1, Options{})
	ctx := ctxs[0]
	verifier, err := NewVerifier(12345)
	if err != nil {
		t.Fatal(err)
	}
	v := []int64{1, 2, 3}
	epoch := ctx.st.Epoch()
	if err := ctx.AllreduceInt64Sum(nil, v, v); err == nil {
		t.Error("AllreduceInt64Sum accepted a nil communicator")
	}
	if err := ctx.AllreduceInt64SumVerified(nil, verifier, v, v); err == nil {
		t.Error("AllreduceInt64SumVerified accepted a nil communicator")
	}
	if got := ctx.st.Epoch(); got != epoch {
		t.Errorf("refused calls advanced the key epoch %d -> %d", epoch, got)
	}
}

// Ciphertext on the wire is uniform even for constant plaintext — the
// end-to-end confidentiality property, measured at the public API level.
func TestWireUniformityEndToEnd(t *testing.T) {
	const p = 2
	w, ctxs := initWorld(t, p, Options{})
	var captured []byte
	tree, err := inc.NewTree(p, 2, func(dst, src []byte) {
		for i := range dst {
			dst[i] += src[i] // lane-wise garbage fold is fine; we only capture
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tap := &captureTap{}
	tree.SetTap(tap)
	_ = w
	// Capture across several calls directly at the scheme level via INC.
	w2, ctxs2 := initWorld(t, p, Options{INC: tree})
	_ = ctxs
	err = w2.Run(testTimeout, func(c *mpi.Comm) error {
		data := make([]int64, 2048) // all zeros: maximally structured plaintext
		out := make([]int64, len(data))
		for call := 0; call < 2; call++ {
			if err := ctxs2[c.Rank()].AllreduceInt64Sum(c, data, out); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tap.mu.Lock()
	for _, f := range tap.frames {
		captured = append(captured, f...)
	}
	tap.mu.Unlock()
	chi2, err := adversary.ChiSquareBytes(captured)
	if err != nil {
		t.Fatal(err)
	}
	// Up-frames from hosts are uniform; aggregated/down frames are sums of
	// uniform values (still uniform mod 2^64). Allow a wider 8σ band since
	// the capture mixes frame kinds.
	if chi2 > 255+8*math.Sqrt(2*255) {
		t.Errorf("χ² = %.1f: wire traffic is not uniform", chi2)
	}
}

// TestCipherBufGrowShrinkNoRealloc pins the sync-path ciphertext scratch:
// once grown, trains of grow/shrink calls reuse the same block with zero
// allocations per call.
func TestCipherBufGrowShrinkNoRealloc(t *testing.T) {
	_, ctxs := initWorld(t, 1, Options{})
	ctx := ctxs[0]
	sizes := []int{64 << 10, 4 << 10, 128, 100 << 10, 32 << 10, 128 << 10, 1 << 10}
	// Warm to the largest size in the train.
	if buf := ctx.cipherBuf(128 << 10); len(buf) != 128<<10 {
		t.Fatalf("warm buf len %d", len(buf))
	}
	bad := -1
	allocs := testing.AllocsPerRun(100, func() {
		for _, n := range sizes {
			if b := ctx.cipherBuf(n); len(b) != n {
				bad = n
			}
		}
	})
	if bad >= 0 {
		t.Fatalf("cipherBuf returned wrong length for %d", bad)
	}
	if allocs != 0 {
		t.Errorf("grow/shrink train allocates %v per run, want 0", allocs)
	}
	// There is no size above which the buffer stops being kept: a 5 MiB
	// message grows it once, and every later call reuses that block.
	big := ctx.cipherBuf(5 << 20)
	if len(big) != 5<<20 {
		t.Fatalf("large buf len %d", len(big))
	}
	for _, n := range []int{5 << 20, 6 << 20, 128} {
		if b := ctx.cipherBuf(n); &b[0] != &big[0] {
			t.Errorf("cipherBuf(%d) after a 5 MiB call moved to a new block", n)
		}
	}
}
