package hear

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"hear/internal/engine"
	"hear/internal/mpi"
)

// The typed entry points marshal block by block into the memory they
// encrypt in; AllreduceRaw encrypts from and into a caller-owned wire
// buffer, the data path every typed call used to be built on. The tests
// below hold each typed entry point to AllreduceRaw on a hand-marshalled
// buffer, byte for byte, in a twin world holding the same keys.

// typedEntry is one typed entry point under test. run draws this rank's n
// elements from rng and returns the result in comparison form: typed calls
// the entry point itself (recv laid out per alias), otherwise the elements
// are marshalled by hand and reduced through AllreduceRaw.
type typedEntry struct {
	name string
	run  func(ctx *Context, comm *mpi.Comm, rng *rand.Rand, n int, alias aliasMode, typed bool) ([]byte, error)
}

type aliasMode int

const (
	aliasSame     aliasMode = iota // recv is send
	aliasDistinct                  // recv is its own slice of len(send)
	aliasLonger                    // recv is longer than send; the tail must not move
)

// handWire marshals vals with encoding/binary — independent of the codecs
// under test.
func handWire[T any](vals []T) []byte {
	var b bytes.Buffer
	if err := binary.Write(&b, binary.LittleEndian, vals); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// newEntry builds a typedEntry. wire is the hand marshaller of the element
// type into the scheme's plaintext words, and open turns the wire-format
// aggregate AllreduceRaw leaves behind into the bytes wire would produce
// for the typed result (identity for everything but the bool encodings).
func newEntry[T comparable](name string, kind SchemeKind, gen func(*rand.Rand) T,
	wire func([]T) []byte, open func(raw []byte, p int) []byte,
	call func(*Context, *mpi.Comm, []T, []T) error) typedEntry {
	return typedEntry{name, func(ctx *Context, comm *mpi.Comm, rng *rand.Rand, n int, alias aliasMode, typed bool) ([]byte, error) {
		send := make([]T, n)
		for i := range send {
			send[i] = gen(rng)
		}
		if !typed {
			s, err := ctx.Scheme(kind)
			if err != nil {
				return nil, err
			}
			buf := wire(send)
			if err := ctx.AllreduceRaw(comm, s, buf, n); err != nil {
				return nil, err
			}
			return open(buf, ctx.Size()), nil
		}
		const tail = 3
		orig := append([]T(nil), send...)
		recv := send
		switch alias {
		case aliasDistinct:
			recv = make([]T, n)
		case aliasLonger:
			recv = make([]T, n+tail)
			for i := n; i < len(recv); i++ {
				recv[i] = gen(rng)
			}
		}
		guard := append([]T(nil), recv[n:]...)
		if err := call(ctx, comm, send, recv); err != nil {
			return nil, err
		}
		for i, g := range guard {
			if recv[n+i] != g {
				return nil, fmt.Errorf("recv[%d] past len(send)=%d was overwritten", n+i, n)
			}
		}
		if alias != aliasSame {
			for i := range orig {
				if send[i] != orig[i] {
					return nil, fmt.Errorf("send[%d] modified although recv is a distinct slice", i)
				}
			}
		}
		return wire(recv[:n]), nil
	}}
}

func same(raw []byte, _ int) []byte { return raw }

func boolWire(vals []bool) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		if v {
			out[4*i] = 1
		}
	}
	return out
}

// boolOpen decodes AllreduceRaw's per-element counts by hand into the
// words boolWire gives the typed result.
func boolOpen(isOr bool) func([]byte, int) []byte {
	return func(raw []byte, p int) []byte {
		out := make([]byte, len(raw))
		for i := 0; i < len(raw); i += 4 {
			c := int(binary.LittleEndian.Uint32(raw[i:]))
			if (isOr && c > 0) || (!isOr && c == p) {
				out[i] = 1
			}
		}
		return out
	}
}

func unitFloat32(r *rand.Rand) float32  { return 0.5 + r.Float32() }
func unitFloat64(r *rand.Rand) float64  { return 0.5 + r.Float64() }
func smallFloat32(r *rand.Rand) float32 { return 2*r.Float32() - 1 }
func smallFloat64(r *rand.Rand) float64 { return 2*r.Float64() - 1 }
func anyUint64(r *rand.Rand) uint64     { return r.Uint64() }

// allreduceEntries lists every typed Allreduce entry point: all SchemeKinds
// plus the two bool encodings.
func allreduceEntries() []typedEntry {
	return []typedEntry{
		newEntry("Int32Sum", Int32Sum, func(r *rand.Rand) int32 { return int32(r.Uint32()) }, handWire[int32], same, (*Context).AllreduceInt32Sum),
		newEntry("Int64Sum", Int64Sum, func(r *rand.Rand) int64 { return int64(r.Uint64()) }, handWire[int64], same, (*Context).AllreduceInt64Sum),
		newEntry("Uint64Prod", Int64Prod, anyUint64, handWire[uint64], same, (*Context).AllreduceUint64Prod),
		newEntry("Uint64Xor", Int64Xor, anyUint64, handWire[uint64], same, (*Context).AllreduceUint64Xor),
		newEntry("Float32Sum", Float32Sum, unitFloat32, handWire[float32], same, (*Context).AllreduceFloat32Sum),
		newEntry("Float32Prod", Float32Prod, unitFloat32, handWire[float32], same, (*Context).AllreduceFloat32Prod),
		newEntry("Float32SumV2", Float32SumV2, smallFloat32, handWire[float32], same, (*Context).AllreduceFloat32SumV2),
		newEntry("Float64Sum", Float64Sum, unitFloat64, handWire[float64], same, (*Context).AllreduceFloat64Sum),
		newEntry("Float64Prod", Float64Prod, unitFloat64, handWire[float64], same, (*Context).AllreduceFloat64Prod),
		newEntry("Float64SumV2", Float64SumV2, smallFloat64, handWire[float64], same, (*Context).AllreduceFloat64SumV2),
		newEntry("FixedSum", FixedSum, smallFloat64, handWire[float64], same, (*Context).AllreduceFixedSum),
		newEntry("FixedProd", FixedProd, unitFloat64, handWire[float64], same, (*Context).AllreduceFixedProd),
		newEntry("BoolOr", Int32Sum, func(r *rand.Rand) bool { return r.Intn(4) == 0 }, boolWire, boolOpen(true), (*Context).AllreduceBoolOr),
		newEntry("BoolAnd", Int32Sum, func(r *rand.Rand) bool { return r.Intn(4) != 0 }, boolWire, boolOpen(false), (*Context).AllreduceBoolAnd),
	}
}

// reduceEntries lists the typed Reduce entry points rooted at root. The
// result exists on the root only, so run reports nil elsewhere and the raw
// twin's other ranks are not compared.
func reduceEntries(root int) []typedEntry {
	rooted := func(e typedEntry) typedEntry {
		inner := e.run
		e.name = fmt.Sprintf("%s/root%d", e.name, root)
		e.run = func(ctx *Context, comm *mpi.Comm, rng *rand.Rand, n int, alias aliasMode, typed bool) ([]byte, error) {
			out, err := inner(ctx, comm, rng, n, alias, typed)
			if ctx.Rank() != root {
				out = nil
			}
			return out, err
		}
		return e
	}
	return []typedEntry{
		rooted(newEntry("ReduceInt64Sum", Int64Sum, func(r *rand.Rand) int64 { return int64(r.Uint64()) }, handWire[int64], same,
			func(c *Context, comm *mpi.Comm, send, recv []int64) error {
				return c.ReduceInt64Sum(comm, root, send, recv)
			})),
		rooted(newEntry("ReduceUint64Prod", Int64Prod, anyUint64, handWire[uint64], same,
			func(c *Context, comm *mpi.Comm, send, recv []uint64) error {
				return c.ReduceUint64Prod(comm, root, send, recv)
			})),
		rooted(newEntry("ReduceFloat32Sum", Float32Sum, unitFloat32, handWire[float32], same,
			func(c *Context, comm *mpi.Comm, send, recv []float32) error {
				return c.ReduceFloat32Sum(comm, root, send, recv)
			})),
	}
}

// runTwins runs every (entry, n, alias) combination once in a world of
// typed calls and once in a twin world of AllreduceRaw calls — same
// options, same deterministic key material, same call sequence, hence the
// same key epoch for every pair — and compares the results byte for byte.
func runTwins(t *testing.T, p int, opts, rawOpts Options, entries []typedEntry, counts []int, aliases ...aliasMode) {
	t.Helper()
	if len(aliases) == 0 {
		aliases = []aliasMode{aliasSame, aliasDistinct, aliasLonger}
	}
	collect := func(o Options, typed bool) [][][]byte {
		w, ctxs := initWorld(t, p, o)
		results := make([][][]byte, p)
		err := w.Run(testTimeout, func(c *mpi.Comm) error {
			for ei, e := range entries {
				for _, n := range counts {
					for _, a := range aliases {
						rng := rand.New(rand.NewSource(int64(c.Rank()*7919 + ei*104729 + n)))
						out, err := e.run(ctxs[c.Rank()], c, rng, n, a, typed)
						if err != nil {
							return fmt.Errorf("%s n=%d alias=%d typed=%v: %w", e.name, n, a, typed, err)
						}
						results[c.Rank()] = append(results[c.Rank()], out)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	typed, raw := collect(opts, true), collect(rawOpts, false)
	for r := 0; r < p; r++ {
		i := 0
		for _, e := range entries {
			for _, n := range counts {
				for _, a := range aliases {
					if got, want := typed[r][i], raw[r][i]; got != nil && !bytes.Equal(got, want) {
						t.Errorf("P=%d rank %d %s n=%d alias=%d: typed result differs from AllreduceRaw", p, r, e.name, n, a)
					}
					i++
				}
			}
		}
	}
}

// blockCounts is the element-count ladder around a pipeline block of
// blockBytes: one element, one short of a block, exactly one, one over,
// and three blocks and a ragged tail. blockBytes is a multiple of every
// scheme's ciphertext size at γ = 0, and the 8-byte schemes' counts are
// used for the 4-byte ones too (they then straddle half-block boundaries,
// which is as good).
func blockCounts(blockBytes int) []int {
	b := blockBytes / 8
	return []int{1, b - 1, b, b + 1, 3*b + 7}
}

func TestTypedMatchesRaw(t *testing.T) {
	// The full matrix on blocks of 512 B: paths × Workers × P × the count
	// ladder × aliasing, every entry point. Blocks that small never reach
	// the engine's shard threshold, so Workers changes nothing there —
	// which is itself the property (one path, whatever the pool size).
	for _, workers := range []int{1, 4} {
		for _, p := range []int{2, 3, 5} {
			for _, blockBytes := range []int{0, 512} {
				t.Run(fmt.Sprintf("workers%d/P%d/block%d", workers, p, blockBytes), func(t *testing.T) {
					opts := Options{Workers: workers, PipelineBlockBytes: blockBytes}
					runTwins(t, p, opts, opts, allreduceEntries(), blockCounts(512))
				})
			}
		}
	}
}

// TestTypedMatchesRawSharded repeats the comparison where it is most
// exposed: blocks of twice the engine's minimum shard, so with Workers = 4
// every block is encrypted and decrypted in place from several goroutines
// at once, each shard reading and writing its own byte range.
func TestTypedMatchesRawSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("64 KiB blocks through the software float kernels")
	}
	const blockBytes = 2 * engine.MinShardBytes
	b := blockBytes / 8
	for _, p := range []int{2, 3} {
		for _, pipe := range []int{0, blockBytes} {
			t.Run(fmt.Sprintf("P%d/block%d", p, pipe), func(t *testing.T) {
				opts := Options{Workers: 4, PipelineBlockBytes: pipe}
				runTwins(t, p, opts, opts, allreduceEntries(), []int{b + 1, 3*b + 7}, aliasSame, aliasLonger)
			})
		}
	}
}

// TestTypedMatchesRawInflating repeats the comparison at γ = 2, where the
// float ciphertexts are wider than their plaintexts and the typed path
// stages in context scratch instead of the cipher block.
func TestTypedMatchesRawInflating(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		opts := Options{Gamma: 2, Workers: 1}
		if pipelined {
			opts.PipelineBlockBytes = 540 // 108 five-byte FP32 cells, 60 nine-byte FP64 cells
		}
		runTwins(t, 3, opts, opts, allreduceEntries(), []int{1, 59, 60, 61, 107, 108, 109, 331})
	}
}

// TestReduceMatchesRaw holds the typed Reduce entry points to AllreduceRaw
// under the reduce-then-broadcast algorithm, whose reduce half is the
// binomial tree Comm.Reduce walks — so with root 0 even the float sum,
// whose fold is not associative, must agree bit for bit. Other roots
// rotate the tree, which only the integer schemes are indifferent to.
func TestReduceMatchesRaw(t *testing.T) {
	counts := []int{1, 63, 64, 65, 199, 2*engine.MinShardBytes/8 + 5}
	for _, workers := range []int{1, 4} {
		for _, p := range []int{2, 3, 5} {
			opts := Options{Workers: workers}
			rawOpts := opts
			rawOpts.Algorithm = mpi.AlgoReduceBcast
			runTwins(t, p, opts, rawOpts, reduceEntries(0), counts)
			runTwins(t, p, opts, rawOpts, reduceEntries(p - 1)[:2], counts)
		}
	}
}

// TestAllreduceAllocs pins the steady state of the typed data path: once
// the context scratch, the pipeline blocks and the runtime's message
// buffers have reached their sizes, a call allocates nothing proportional
// to its payload — under 2 % of it, per rank — on the sync path at 256 KiB
// and on the pipelined path, integer (encrypted in place, 16 MiB in 1 MiB
// blocks) and float (γ = 2, staged in context scratch). The pipelined float
// case is 2 MiB, three blocks, not 16 MiB: the software float kernels
// make a 16 MiB round 0.6 s, and twenty of those saturate both cores for
// long enough that the timing assertions of benchmarks/e2e, which
// `go test ./...` runs beside this package, start to miss.
func TestAllreduceAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("race-mode sync.Pool drops items; the gate runs race-free")
	}
	// A collection empties the runtime's message-buffer pools (that is what
	// bounds their retention); refilling them is not a per-call cost, so
	// the collector stays off while calls are counted.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Steady state is the best of three windows: the free list's high-water
	// mark — eager senders running a block ahead, plus the slot sync.Pool
	// keeps per P that other Ps cannot reach — is reached by rare timing
	// coincidences, and a buffer allocated on the way there is a one-time
	// cost, not a per-call one.
	const ranks, windows = 2, 3
	cases := []struct {
		name    string
		float   bool
		payload int
		rounds  int // per window
		opts    Options
	}{
		{"sync/int64/256KiB", false, 256 << 10, 100, Options{}},
		{"sync/float32/256KiB", true, 256 << 10, 40, Options{}},
		{"pipelined/int64/16MiB", false, 16 << 20, 7, Options{PipelineBlockBytes: 1 << 20}},
		{"pipelined/float32/2MiB", true, 2 << 20, 7, Options{PipelineBlockBytes: 1 << 20}},
	}
	for _, tc := range cases {
		tc.opts.Gamma = 2
		w, ctxs := initWorld(t, ranks, tc.opts)
		var call func(c *mpi.Comm) error
		if tc.float {
			send, recv := make([]float32, tc.payload/4), make([][]float32, ranks)
			for i := range send {
				send[i] = 1.5
			}
			for r := range recv {
				recv[r] = make([]float32, len(send))
			}
			call = func(c *mpi.Comm) error { return ctxs[c.Rank()].AllreduceFloat32Sum(c, send, recv[c.Rank()]) }
		} else {
			send, recv := make([]int64, tc.payload/8), make([][]int64, ranks)
			for r := range recv {
				recv[r] = make([]int64, len(send))
			}
			call = func(c *mpi.Comm) error { return ctxs[c.Rank()].AllreduceInt64Sum(c, send, recv[c.Rank()]) }
		}
		run := func(n int) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := w.Run(testTimeout, func(c *mpi.Comm) error {
				for i := 0; i < n; i++ {
					if err := call(c); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		run(4) // grow scratch, pool blocks and message buffers
		perCall := math.Inf(1)
		for i := 0; i < windows; i++ {
			perCall = math.Min(perCall, float64(run(tc.rounds))/float64(tc.rounds*ranks))
		}
		if limit := 0.02 * float64(tc.payload); perCall > limit {
			t.Errorf("%s: %.0f B allocated per call and rank, want < %.0f (2 %% of the payload)", tc.name, perCall, limit)
		}
		t.Logf("%s: %.0f B per call and rank", tc.name, perCall)
	}
}
