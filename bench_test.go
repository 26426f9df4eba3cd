package hear

// One testing.B benchmark per table/figure of the paper's evaluation, so
// `go test -bench=. -benchmem` regenerates the measured quantities in
// benchmark form. cmd/hearbench renders the same experiments as the
// paper's tables; these benches are the CI-friendly counterparts.

import (
	"testing"

	"hear/internal/adversary"
	"hear/internal/baseline"
	"hear/internal/core"
	"hear/internal/dnn"
	"hear/internal/engine"
	"hear/internal/hfp"
	"hear/internal/homac"
	"hear/internal/keys"
	"hear/internal/mpi"
	"hear/internal/netsim"
	"hear/internal/prf"
	"hear/internal/refmath"
	"hear/internal/ring"
)

func benchKeys(b *testing.B, backend string, size int) []*keys.RankState {
	b.Helper()
	states, err := keys.Generate(size, keys.Config{Backend: backend, Rand: &seqReader{next: 9}})
	if err != nil {
		b.Fatal(err)
	}
	return states
}

// --- Table 1: PHE baselines vs HEAR (per-element encrypt cost) ---

func BenchmarkTable1PaillierEncrypt(b *testing.B) {
	p, err := baseline.NewPaillier(256)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Encrypt(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1RSAEncrypt(b *testing.B) {
	r, err := baseline.NewRSA(256)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Encrypt(uint64(i) + 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1ElGamalEncrypt(b *testing.B) {
	e, err := baseline.NewElGamal(512)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Encrypt(uint64(i) + 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1HEARIntSumEncryptPerElem(b *testing.B) {
	states := benchKeys(b, prf.BackendAESFast, 2)
	s, err := core.NewIntSum(64)
	if err != nil {
		b.Fatal(err)
	}
	const n = 4096
	plain := make([]byte, n*8)
	cipher := make([]byte, n*8)
	states[0].Advance()
	b.ResetTimer()
	for i := 0; i < b.N; i += n {
		if err := s.Encrypt(states[0], plain, cipher, n); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 3: HFP precision-loss kernels ---

func BenchmarkFig3HFPAddFP32(b *testing.B) {
	f := hfp.FP32.ForAdd(2)
	x, _ := f.Encode(1.375)
	y, _ := f.Encode(2.625)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Add(x, y)
	}
}

func BenchmarkFig3HFPMulFP64(b *testing.B) {
	f := hfp.FP64.ForMul(0)
	x, _ := f.Encode(1.375)
	y, _ := f.Encode(0.99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Mul(x, y)
	}
}

func BenchmarkFig3ReferenceSum(b *testing.B) {
	acc := refmath.NewSum()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Add(1.0 / float64(i+1))
	}
}

// --- Figure 4: 16 B critical path ---

func benchmarkFig4(b *testing.B, backend string) {
	states := benchKeys(b, backend, 2)
	w := mpi.NewWorld(2)
	b.ResetTimer()
	err := w.Run(0, func(c *mpi.Comm) error {
		s, err := core.NewIntSum(32)
		if err != nil {
			return err
		}
		op := mpi.OpFrom("bench", s.Reduce)
		st := states[c.Rank()]
		plain := make([]byte, 16)
		cipher := make([]byte, 16)
		for i := 0; i < b.N; i++ {
			st.Advance()
			if err := s.Encrypt(st, plain, cipher, 4); err != nil {
				return err
			}
			if err := c.Allreduce(cipher, cipher, 4, mpi.Int32, op); err != nil {
				return err
			}
			if err := s.Decrypt(st, cipher, plain, 4); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFig4Allreduce16BAES(b *testing.B)  { benchmarkFig4(b, prf.BackendAESFast) }
func BenchmarkFig4Allreduce16BSHA1(b *testing.B) { benchmarkFig4(b, prf.BackendSHA1) }

func BenchmarkFig4Allreduce16BNative(b *testing.B) {
	w := mpi.NewWorld(2)
	b.ResetTimer()
	err := w.Run(0, func(c *mpi.Comm) error {
		buf := make([]byte, 16)
		for i := 0; i < b.N; i++ {
			if err := c.Allreduce(buf, buf, 4, mpi.Int32, mpi.SumInt32); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// --- Figure 5: enc/dec throughput per backend ---

func benchmarkFig5Encrypt(b *testing.B, backend string, mk func() (core.Scheme, error), bytesPerElem int) {
	states := benchKeys(b, backend, 2)
	s, err := mk()
	if err != nil {
		b.Fatal(err)
	}
	n := (256 << 10) / bytesPerElem
	plain := make([]byte, n*s.PlainSize())
	cipher := make([]byte, n*s.CipherSize())
	states[0].Advance()
	b.SetBytes(int64(n * s.PlainSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Encrypt(states[0], plain, cipher, n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5IntSumEncryptAES(b *testing.B) {
	benchmarkFig5Encrypt(b, prf.BackendAESFast, func() (core.Scheme, error) { return core.NewIntSum(64) }, 8)
}

func BenchmarkFig5IntSumEncryptSHA1(b *testing.B) {
	benchmarkFig5Encrypt(b, prf.BackendSHA1, func() (core.Scheme, error) { return core.NewIntSum(64) }, 8)
}

func BenchmarkFig5FloatSumEncryptAES(b *testing.B) {
	benchmarkFig5Encrypt(b, prf.BackendAESFast, func() (core.Scheme, error) { return core.NewFloatSum(hfp.FP32, 0) }, 4)
}

func BenchmarkFig5IntProdEncryptAES(b *testing.B) {
	benchmarkFig5Encrypt(b, prf.BackendAESFast, func() (core.Scheme, error) { return core.NewIntProd(64) }, 8)
}

func BenchmarkFig5IntXorEncryptAES(b *testing.B) {
	benchmarkFig5Encrypt(b, prf.BackendAESFast, func() (core.Scheme, error) { return core.NewIntXor(64) }, 8)
}

// benchmarkFig5EngineEncDec measures the multicore cipher engine's
// encrypt+decrypt throughput on a 4 MiB message. The engine is sized to
// GOMAXPROCS, which the -cpu flag controls, so
//
//	go test -bench 'Fig5.*Engine' -cpu 1,2,4,8
//
// produces the parallel-scaling curve; the sharded output is bit-identical
// to the serial path (internal/engine's cross-check tests), so this is
// pure speedup, not a relaxed code path.
func benchmarkFig5EngineEncDec(b *testing.B, mk func() (core.Scheme, error)) {
	states := benchKeys(b, prf.BackendAESFast, 2)
	s, err := mk()
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(0)
	defer eng.Close()
	n := (4 << 20) / s.PlainSize()
	plain := make([]byte, n*s.PlainSize())
	cipher := make([]byte, n*s.CipherSize())
	states[0].Advance()
	b.SetBytes(int64(2 * n * s.PlainSize())) // one encrypt + one decrypt pass
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Encrypt(s, states[0], plain, cipher, n); err != nil {
			b.Fatal(err)
		}
		if err := eng.Decrypt(s, states[0], cipher, plain, n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5IntSumEngineEncDec(b *testing.B) {
	benchmarkFig5EngineEncDec(b, func() (core.Scheme, error) { return core.NewIntSum(64) })
}

func BenchmarkFig5FloatSumEngineEncDec(b *testing.B) {
	benchmarkFig5EngineEncDec(b, func() (core.Scheme, error) { return core.NewFloatSum(hfp.FP32, 0) })
}

// --- Figure 6: pipelined vs sync data path ---

func benchmarkFig6(b *testing.B, blockBytes int) {
	const p = 2
	const msg = 1 << 20
	w := mpi.NewWorld(p)
	ctxs, err := Init(w, Options{PipelineBlockBytes: blockBytes, Rand: &seqReader{next: 7}})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(msg)
	b.ResetTimer()
	err = w.Run(0, func(c *mpi.Comm) error {
		ctx := ctxs[c.Rank()]
		s, err := ctx.Scheme(Int32Sum)
		if err != nil {
			return err
		}
		buf := make([]byte, msg)
		for i := 0; i < b.N; i++ {
			if err := ctx.AllreduceRaw(c, s, buf, msg/4); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFig6Sync1MiB(b *testing.B)              { benchmarkFig6(b, 0) }
func BenchmarkFig6Pipelined64KiBBlocks(b *testing.B)  { benchmarkFig6(b, 64<<10) }
func BenchmarkFig6Pipelined256KiBBlocks(b *testing.B) { benchmarkFig6(b, 256<<10) }

// --- Figures 7/8: the scaling model (cheap; measures model evaluation) ---

func BenchmarkFig7ScalingModel(b *testing.B) {
	p := netsim.AriesDefaults()
	h := &netsim.HEARCosts{EncRate: 9e9, DecRate: 18e9, PerCallLatency: 4e-7, Inflation: 1, PipelineEfficiency: 0.85}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pt := range netsim.PaperPoints() {
			if _, _, err := p.ThroughputPerNode(h, pt.Ranks, pt.Nodes, 16<<20); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig8LatencyModel(b *testing.B) {
	p := netsim.AriesDefaults()
	h := &netsim.HEARCosts{EncRate: 9e9, DecRate: 18e9, PerCallLatency: 4e-7, Inflation: 1, PipelineEfficiency: 0.85}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pt := range netsim.PaperPoints() {
			if _, _, err := p.Latency(h, pt.Ranks, pt.Nodes, 16); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figure 9: DNN proxy replay ---

func BenchmarkFig9DNNProxies(b *testing.B) {
	p := netsim.AriesDefaults()
	h := &netsim.HEARCosts{EncRate: 0.4e9, DecRate: 0.4e9, PerCallLatency: 5e-7, Inflation: 1, PipelineEfficiency: 0.85}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dnn.SimulateAll(p, h); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §5.1.4 ablation: canceling (Θ(1)) vs naive (Θ(P)) decryption ---

func benchmarkDecryptScaling(b *testing.B, p int, naive bool) {
	states := benchKeys(b, prf.BackendAESFast, p)
	const n = 8192
	var enc, dec core.Scheme
	if naive {
		starting := make([]uint64, p)
		for i, st := range states {
			starting[i] = st.SelfKey
		}
		s, err := core.NewNaiveIntSum(64, starting)
		if err != nil {
			b.Fatal(err)
		}
		enc, dec = s, s
	} else {
		s, err := core.NewIntSum(64)
		if err != nil {
			b.Fatal(err)
		}
		enc, dec = s, s
	}
	plain := make([]byte, n*8)
	cipher := make([]byte, n*8)
	states[0].Advance()
	if err := enc.Encrypt(states[0], plain, cipher, n); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec.Decrypt(states[0], cipher, plain, n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDecryptCancelingP4(b *testing.B)  { benchmarkDecryptScaling(b, 4, false) }
func BenchmarkAblationDecryptCancelingP64(b *testing.B) { benchmarkDecryptScaling(b, 64, false) }
func BenchmarkAblationDecryptNaiveP4(b *testing.B)      { benchmarkDecryptScaling(b, 4, true) }
func BenchmarkAblationDecryptNaiveP64(b *testing.B)     { benchmarkDecryptScaling(b, 64, true) }

// --- §5.5: HoMAC tagging cost ---

func BenchmarkHoMACTagAndVerify(b *testing.B) {
	states := benchKeys(b, prf.BackendAESFast, 2)
	v, err := homac.New(ring.MersennePrime61, 424242)
	if err != nil {
		b.Fatal(err)
	}
	const n = 1024
	cipher := make([]uint64, n)
	tags := make([]uint64, n)
	states[0].Advance()
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Tag(states[0], cipher, tags); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §5.3.1: MAP attack evaluation cost ---

func BenchmarkMAPAttack8Bit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := adversary.MAPAttack(8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- end-to-end API benches at several sizes ---

func benchmarkE2E(b *testing.B, elems int) {
	const p = 2
	w := mpi.NewWorld(p)
	ctxs, err := Init(w, Options{Rand: &seqReader{next: 11}})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(elems * 8))
	b.ResetTimer()
	err = w.Run(0, func(c *mpi.Comm) error {
		data := make([]int64, elems)
		out := make([]int64, elems)
		for i := 0; i < b.N; i++ {
			if err := ctxs[c.Rank()].AllreduceInt64Sum(c, data, out); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkE2EAllreduce2(b *testing.B)     { benchmarkE2E(b, 2) }
func BenchmarkE2EAllreduce4Ki(b *testing.B)   { benchmarkE2E(b, 4096) }
func BenchmarkE2EAllreduce256Ki(b *testing.B) { benchmarkE2E(b, 256*1024) }
