// Package hear is the public API of this HEAR reproduction — the analogue
// of libhear (§6): a middleware layer that adds homomorphic encryption and
// decryption around Allreduce without changing application code structure.
// Where libhear interposes on PMPI and is enabled with an LD_PRELOAD, this
// package wraps the bundled message-passing runtime (internal/mpi) behind
// per-rank Contexts created at communicator initialization.
//
// Usage mirrors an MPI program:
//
//	w := mpi.NewWorld(8)
//	ctxs, _ := hear.Init(w, hear.Options{})
//	w.Run(0, func(c *mpi.Comm) error {
//	    ctx := ctxs[c.Rank()]
//	    data := []int64{...}
//	    return ctx.AllreduceInt64Sum(c, data, data)
//	})
//
// Every Allreduce call advances the collective key (temporal safety),
// encrypts element-wise with the scheme selected by datatype and
// operation, reduces ciphertexts — on the hosts or through an in-network
// aggregation tree — and decrypts the aggregate with a single PRF stream.
package hear

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"hear/internal/core"
	"hear/internal/engine"
	"hear/internal/fixedpoint"
	"hear/internal/hfp"
	"hear/internal/inc"
	"hear/internal/keys"
	"hear/internal/mempool"
	"hear/internal/metrics"
	"hear/internal/mpi"
	"hear/internal/prf"
	"hear/internal/ring"
	"hear/internal/trace"
)

// Options configures a HEAR communicator.
type Options struct {
	// PRFBackend selects the noise PRF (default prf.BackendAESFast, the
	// hardware-AES counter mode libhear settled on). The insecure
	// prf.BackendXorshift is rejected.
	PRFBackend string
	// Gamma is the float ciphertext inflation parameter γ (§5.3.1):
	// 0 keeps ciphertexts plaintext-sized, 2 restores full mantissa
	// precision for the addition scheme.
	Gamma uint
	// FixedPoint configures the fixed point codec (§5.2); zero value means
	// 64-bit words with 20 fractional bits.
	FixedPointFrac uint
	// PipelineBlockBytes enables the non-blocking pipelined data path for
	// buffers larger than one block (§6 "Communication"): ciphertext
	// blocks of this size overlap encryption, reduction, and decryption.
	// 0 disables pipelining.
	PipelineBlockBytes int
	// INC, when non-nil, routes ciphertext reduction through the
	// in-network aggregation tree instead of host-based collectives.
	INC *inc.Tree
	// INCTags, when non-nil alongside INC, is a second aggregation tree
	// whose fold adds mod the HoMAC prime; verified Allreduce then reduces
	// the (c, σ) pair fully in-network, as §5.5 describes INC doing.
	INCTags *inc.Tree
	// Algorithm selects the host-based Allreduce algorithm (AlgoAuto
	// default); ignored when INC is set.
	Algorithm mpi.Algorithm
	// Workers sizes the multicore cipher engine that shards encryption,
	// decryption, and ciphertext reduction over element ranges
	// (internal/engine; counter-mode noise offsets keep the sharded
	// result bit-identical to the serial path). 0 selects GOMAXPROCS;
	// 1 forces the serial path. The engine is shared by every context of
	// the communicator, mirroring one worker pool per node.
	Workers int
	// VerifiedRetry bounds how many extra attempts AllreduceInt64SumVerified
	// makes after a retryable failure (tampering detected by the HoMAC
	// check, or an INC/runtime timeout), stepping down the degradation
	// ladder INC → pipelined host → sync host on each retry. 0 (default)
	// fails on the first error. Every attempt re-advances the collective
	// key, so retries stay coherent only when the whole group retries —
	// see AllreduceInt64SumVerified.
	VerifiedRetry int
	// RecvTimeout, when positive, bounds every point-to-point receive of
	// this context's host collectives; an expired wait surfaces as a typed
	// mpi.ErrTimeout instead of hanging on a crashed or severed peer.
	// 0 waits forever (the classic MPI behavior).
	RecvTimeout time.Duration
	// Metrics, when non-nil, publishes this communicator's telemetry into
	// the given registry under the hear_* namespace: per-path allreduce
	// call counters and latency histogram, verified-retry attempt counters
	// per ladder rung, gateway sealer operations, and snapshot-time
	// sources for the cipher engine's shard phases and the pipeline
	// mempool. The hot-path instruments are atomic and allocation-free;
	// nil (the default) disables all of it.
	Metrics *metrics.Registry
	// EnableP2P generates the §8 pairwise key matrix at initialization,
	// enabling SendEncrypted/RecvEncrypted and the encrypted non-reducing
	// collectives. Costs Θ(N) key space per rank instead of Θ(1).
	EnableP2P bool
	// SharedGroupKeys derives every rank's starting key from one group key
	// (keys.Config.SharedGroup) instead of independent random draws. Any
	// rank can then re-derive any other rank's PRF noise stream, which is
	// what lets GatewaySealer verify and open a degraded (dropout-tolerant)
	// gateway round over a survivor subset. Trade-off: the default policy
	// gives a rank only its ring neighbours' keys; with this on, the whole
	// group shares one derivation secret (the shared-key secure-aggregation
	// model). The gateway stays key-blind either way. Off by default.
	SharedGroupKeys bool
	// Rand overrides the key-generation entropy source (tests only).
	Rand io.Reader
}

func (o *Options) fill() {
	if o.PRFBackend == "" {
		o.PRFBackend = prf.BackendAESFast
	}
	if o.FixedPointFrac == 0 {
		o.FixedPointFrac = 20
	}
	if o.Rand == nil {
		// Default exactly as internal/keys does: nil means the system CSPRNG.
		// Init reads from o.Rand directly for the §8 pairwise matrix, so a
		// nil reader would otherwise crash EnableP2P initialization.
		o.Rand = rand.Reader
	}
}

// Context is one rank's HEAR state: its key material and scheme instances.
// A Context belongs to one rank goroutine and is not safe for concurrent
// use — exactly like an MPI process's library state.
type Context struct {
	rank    int
	size    int
	st      *keys.RankState
	opts    Options
	schemes map[string]core.Scheme
	pool    *mempool.Pool
	eng     *engine.Engine // shared multicore cipher engine (Options.Workers)
	mx      *ctxMetrics    // hot-path instruments; no-op when Options.Metrics is nil

	// syncBuf is the sync data path's ciphertext buffer (cipherBuf) and
	// plainBuf the plaintext staging of typed calls on inflating schemes
	// (words.stage), both in allreduce.go. Each grows to the largest
	// message seen and lives as long as the context; their contents are
	// dead once the collective that filled them returns.
	syncBuf, plainBuf []byte

	// lanes is the verified round's seal / open scratch (GatewaySealer and
	// AllreduceInt64SumVerified); see laneScratch in extensions.go.
	lanes laneScratch

	// faultInjector, when set, corrupts the reduced ciphertext before
	// HoMAC verification (testing/demo hook; see SetFaultInjector).
	faultInjector func([]byte)

	// verifiedRetries counts the extra attempts verified allreduces needed
	// over this context's lifetime (see VerifiedRetries).
	verifiedRetries int

	// §8 extension state (nil/zero unless Options.EnableP2P).
	pairKeys  []uint64 // this rank's row of the symmetric pairwise key matrix
	sendSeq   []uint64 // per-peer point-to-point message counters
	gatherSeq uint64   // collective-call counters for the encrypted
	a2aSeq    uint64   // non-reducing collectives (lockstep across ranks)
}

// Init performs HEAR's initialization for every rank of a world: key
// generation and the secure exchange of §5 ("Key Generation"). It returns
// one Context per rank. In a deployment each context would live inside
// that rank's secure environment; here the slice models the completed
// exchange.
func Init(w *mpi.World, opts Options) ([]*Context, error) {
	opts.fill()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	states, err := keys.Generate(w.Size(), keys.Config{
		Backend: opts.PRFBackend, Rand: opts.Rand, SharedGroup: opts.SharedGroupKeys})
	if err != nil {
		return nil, fmt.Errorf("hear: init: %w", err)
	}
	// §8 pairwise key matrix: symmetric, drawn once, distributed by row.
	var matrix [][]uint64
	if opts.EnableP2P {
		n := w.Size()
		matrix = make([][]uint64, n)
		for i := range matrix {
			matrix[i] = make([]uint64, n)
		}
		var b [8]byte
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if _, err := io.ReadFull(opts.Rand, b[:]); err != nil {
					return nil, fmt.Errorf("hear: drawing pairwise key: %w", err)
				}
				k := binary.LittleEndian.Uint64(b[:])
				matrix[i][j] = k
				matrix[j][i] = k
			}
		}
	}

	// One cipher engine for all contexts: rank goroutines of one world
	// share the node's cores, so a shared pool avoids oversubscription.
	eng := engine.New(opts.Workers)
	mx := newCtxMetrics(opts.Metrics)

	ctxs := make([]*Context, w.Size())
	for i := range ctxs {
		var pool *mempool.Pool
		if opts.PipelineBlockBytes > 0 {
			// Three blocks cover the encrypt/reduce/decrypt pipeline depth.
			pool, err = mempool.New(opts.PipelineBlockBytes, 3, 0)
			if err != nil {
				return nil, fmt.Errorf("hear: init pool: %w", err)
			}
		}
		ctx := &Context{
			rank:    i,
			size:    w.Size(),
			st:      states[i],
			opts:    opts,
			schemes: make(map[string]core.Scheme),
			pool:    pool,
			eng:     eng,
			mx:      mx,
		}
		if matrix != nil {
			ctx.pairKeys = matrix[i]
			ctx.sendSeq = make([]uint64, w.Size())
		}
		ctxs[i] = ctx
	}
	registerTelemetry(opts.Metrics, eng, ctxs)
	return ctxs, nil
}

// Rank returns the context's rank.
func (c *Context) Rank() int { return c.rank }

// Workers returns the worker count of the shared cipher engine.
func (c *Context) Workers() int { return c.eng.Workers() }

// EngineBreakdown snapshots the cipher engine's per-shard phase timings
// (encrypt_shard/decrypt_shard/reduce_shard; one sample per shard). The
// accumulator is shared across all contexts of the communicator.
func (c *Context) EngineBreakdown() *trace.Breakdown { return c.eng.Phases().Snapshot() }

// Size returns the communicator size.
func (c *Context) Size() int { return c.size }

// scheme returns (creating on first use) the named scheme instance.
func (c *Context) scheme(key string, mk func() (core.Scheme, error)) (core.Scheme, error) {
	if s, ok := c.schemes[key]; ok {
		return s, nil
	}
	s, err := mk()
	if err != nil {
		return nil, err
	}
	c.schemes[key] = s
	return s, nil
}

func (c *Context) intSum(width int) (core.Scheme, error) {
	return c.scheme(fmt.Sprintf("int%d-sum", width), func() (core.Scheme, error) { return core.NewIntSum(width) })
}

func (c *Context) intProd(width int) (core.Scheme, error) {
	return c.scheme(fmt.Sprintf("int%d-prod", width), func() (core.Scheme, error) { return core.NewIntProd(width) })
}

func (c *Context) intXor(width int) (core.Scheme, error) {
	return c.scheme(fmt.Sprintf("int%d-xor", width), func() (core.Scheme, error) { return core.NewIntXor(width) })
}

func (c *Context) floatSum(base hfp.Format) (core.Scheme, error) {
	return c.scheme(fmt.Sprintf("float%d-sum-g%d", base.Lm, c.opts.Gamma), func() (core.Scheme, error) {
		return core.NewFloatSum(base, c.opts.Gamma)
	})
}

func (c *Context) floatProd(base hfp.Format) (core.Scheme, error) {
	return c.scheme(fmt.Sprintf("float%d-prod-g%d", base.Lm, c.opts.Gamma), func() (core.Scheme, error) {
		return core.NewFloatProd(base, c.opts.Gamma)
	})
}

func (c *Context) floatSumV2(base hfp.Format) (core.Scheme, error) {
	return c.scheme(fmt.Sprintf("float%d-sumv2-g%d", base.Lm, c.opts.Gamma), func() (core.Scheme, error) {
		return core.NewFloatSumV2(base, c.opts.Gamma)
	})
}

func (c *Context) fixedSum() (core.Scheme, error) {
	return c.scheme("fixed-sum", func() (core.Scheme, error) {
		codec, err := fixedpoint.NewCodec(64, c.opts.FixedPointFrac)
		if err != nil {
			return nil, err
		}
		return core.NewFixedSum(codec)
	})
}

func (c *Context) fixedProd() (core.Scheme, error) {
	return c.scheme("fixed-prod", func() (core.Scheme, error) {
		codec, err := fixedpoint.NewCodec(64, c.opts.FixedPointFrac)
		if err != nil {
			return nil, err
		}
		return core.NewFixedProd(codec)
	})
}

// HoMACPrime is the modulus of the result-verification field (§5.5).
const HoMACPrime = ring.MersennePrime61
