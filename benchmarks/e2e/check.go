package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"hear"
	"hear/internal/mpi"
)

// Inputs and the correctness gate. Every participant's vector in every
// round is a pure function of (seed, rank, round, index), so each
// participant recomputes the plaintext reference for the elements it checks
// without sharing memory with the others, and the program under test sees
// nothing but the generated vectors.

// checkedIndices is how many seed-chosen elements every participant
// rewrites before each round and checks after it.
const checkedIndices = 64

// maxRelErr bounds the float32-sum error against the float64 reference; the
// seed tree's worst case on inputs from [1, 1000) is 6.3e-7.
const maxRelErr = 1e-5

// errMismatch marks a round whose aggregate differs from the plaintext
// reference: a failed round, but one the lock-step loop can continue past.
var errMismatch = errors.New("aggregate differs from the plaintext reference")

// mix is the splitmix64 finalizer, used as a stateless random function.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// inputs describes one workload's vectors: n elements on each of ranks
// participants, with idx the indices that change every round.
type inputs struct {
	seed   uint64
	n      int
	ranks  int
	idx    []int // rewritten before every round, in draw order
	sorted []int // idx ascending, for the full-vector walk
}

func newInputs(seed uint64, n, ranks int) *inputs {
	in := &inputs{seed: seed, n: n, ranks: ranks}
	seen := make(map[int]bool, checkedIndices)
	for h := mix(seed); len(in.idx) < min(checkedIndices, n); h = mix(h) {
		if j := int(h % uint64(n)); !seen[j] {
			seen[j] = true
			in.idx = append(in.idx, j)
		}
	}
	in.sorted = append([]int(nil), in.idx...)
	sort.Ints(in.sorted)
	return in
}

// base is the draw behind element j of rank's vector outside idx; it never
// changes between rounds.
func (in *inputs) base(rank, j int) uint64 {
	return mix(in.seed ^ mix(uint64(j)<<8|uint64(rank)))
}

// rewritten is the draw behind element idx[k] of rank's vector in a round.
func (in *inputs) rewritten(rank, round, k int) uint64 {
	return mix(^in.seed ^ mix(uint64(round)<<16|uint64(k)<<8|uint64(rank)))
}

type elem interface{ int64 | float32 }

// kind binds an element type to its scheme, wire format and reference.
type kind[T elem] struct {
	scheme hear.SchemeKind
	size   int // wire bytes per element
	from   func(draw uint64) T
	// marshal and unmarshal are the typed entry point's own conversion loops,
	// which the traced round repeats around AllreduceRaw.
	marshal   func(src []T) []byte
	unmarshal func(buf []byte, dst []T)
	// agrees reports whether got is the reduction of parts.
	agrees func(got T, parts []T) bool
	// The plaintext collective of the same buffer: the paper's baseline.
	plainType mpi.Datatype
	plainOp   mpi.Op
}

var int64Sum = &kind[int64]{
	scheme: hear.Int64Sum,
	size:   8,
	from:   func(draw uint64) int64 { return int64(int32(draw)) },
	marshal: func(src []int64) []byte {
		buf := make([]byte, 8*len(src))
		for i, v := range src {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
		}
		return buf
	},
	unmarshal: func(buf []byte, dst []int64) {
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint64(buf[i*8:]))
		}
	},
	agrees: func(got int64, parts []int64) bool {
		var want int64
		for _, v := range parts {
			want += v
		}
		return got == want
	},
	plainType: mpi.Int64,
	plainOp:   mpi.SumInt64,
}

var float32Sum = &kind[float32]{
	scheme: hear.Float32Sum,
	size:   4,
	// 24 bits of the draw spread over [1, 999).
	from: func(draw uint64) float32 { return float32(1 + float64(draw>>40)*(998.0/(1<<24))) },
	marshal: func(src []float32) []byte {
		buf := make([]byte, 4*len(src))
		for i, v := range src {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
		}
		return buf
	},
	unmarshal: func(buf []byte, dst []float32) {
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
		}
	},
	agrees: func(got float32, parts []float32) bool {
		var want float64
		for _, v := range parts {
			want += float64(v)
		}
		return math.Abs(float64(got)-want) <= maxRelErr*math.Abs(want)
	},
	plainType: mpi.Float32,
	plainOp:   mpi.SumFloat32,
}

// gate is one participant's side of the correctness gate: it owns the
// participant's input vector and result buffer.
type gate[T elem] struct {
	in        *inputs
	k         *kind[T]
	rank      int
	send, out []T
	parts     []T // scratch: every rank's value at one index
	// corruptAt is a test hook: the round whose result rank 0 spoils before
	// checking it, so the gate itself can be shown to fail; -1 disables it.
	corruptAt int
}

func newGate[T elem](in *inputs, k *kind[T], rank int) *gate[T] {
	g := &gate[T]{in: in, k: k, rank: rank, corruptAt: -1,
		send: make([]T, in.n), out: make([]T, in.n), parts: make([]T, in.ranks)}
	for j := range g.send {
		g.send[j] = k.from(in.base(rank, j))
	}
	return g
}

// prepare rewrites the round's checked indices in the input vector.
func (g *gate[T]) prepare(round int) {
	for k, j := range g.in.idx {
		g.send[j] = g.k.from(g.in.rewritten(g.rank, round, k))
	}
}

// verify checks the round's result against the plaintext reference: the
// rewritten indices plus the first and last element, or every element when
// full is set.
func (g *gate[T]) verify(round int, full bool) error {
	if round == g.corruptAt && g.rank == 0 {
		g.out[g.in.idx[0]]++
	}
	for k, j := range g.in.idx {
		for r := range g.parts {
			g.parts[r] = g.k.from(g.in.rewritten(r, round, k))
		}
		if !g.k.agrees(g.out[j], g.parts) {
			return g.mismatch(round, j)
		}
	}
	if !full {
		for _, j := range []int{0, g.in.n - 1} {
			if !g.rewrites(j) && !g.baseAgrees(j) {
				return g.mismatch(round, j)
			}
		}
		return nil
	}
	next := 0 // position in sorted of the first rewritten index >= j
	for j := range g.out {
		if next < len(g.in.sorted) && g.in.sorted[next] == j {
			next++
			continue
		}
		if !g.baseAgrees(j) {
			return g.mismatch(round, j)
		}
	}
	return nil
}

func (g *gate[T]) rewrites(j int) bool {
	k := sort.SearchInts(g.in.sorted, j)
	return k < len(g.in.sorted) && g.in.sorted[k] == j
}

func (g *gate[T]) baseAgrees(j int) bool {
	for r := range g.parts {
		g.parts[r] = g.k.from(g.in.base(r, j))
	}
	return g.k.agrees(g.out[j], g.parts)
}

func (g *gate[T]) mismatch(round, j int) error {
	return fmt.Errorf("round %d, participant %d, element %d = %v: %w", round, g.rank, j, g.out[j], errMismatch)
}
