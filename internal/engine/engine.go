// Package engine is the multicore cipher engine: it shards one scheme
// call — Encrypt, Decrypt, or Reduce — over element ranges and runs the
// shards concurrently on a shared worker pool (internal/engine/pool).
//
// The sharding is exact, not approximate: HEAR's noise is counter-mode
// PRF keystream addressed by global element index, so element j of a
// vector consumes keystream span [j·w, (j+1)·w) of its stream no matter
// how the vector is cut into calls. EncryptAt/DecryptAt expose exactly
// that addressing (the §6 pipelined data path already relies on it across
// blocks), which makes shards fully independent and the sharded result
// bit-identical to the serial path for every scheme. Reduces are
// elementwise folds with no carried state, so they shard the same way.
// See DESIGN.md, "The multicore cipher engine".
package engine

import (
	"hear/internal/core"
	"hear/internal/engine/pool"
	"hear/internal/keys"
	"hear/internal/trace"
)

// Shard sizing. One shard is the unit a worker runs to completion.
const (
	// MinShardBytes is the smallest shard worth shipping to a worker;
	// below twice this, the whole call runs serially on the caller (the
	// AES-NI keystream for a few KiB costs less than a channel handoff).
	MinShardBytes = 32 << 10
	// MaxShardBytes caps a shard so (a) its keystream scratch stays
	// inside internal/core's pooled-scratch cap — the float schemes draw
	// 16 noise bytes per element, up to 4× the cell size — and (b) large
	// messages split into more shards than workers, which load-balances
	// dynamically when cores are unevenly busy.
	MaxShardBytes = 256 << 10
)

// Phase names recorded per shard into the pool's trace accumulator.
const (
	PhaseEncryptShard = "encrypt_shard"
	PhaseDecryptShard = "decrypt_shard"
	PhaseReduceShard  = "reduce_shard"
)

// Engine shards cipher calls over a worker pool. One engine is shared by
// all of a communicator's rank contexts; it is safe for concurrent use.
type Engine struct {
	p *pool.Pool
}

// New builds an engine over its own pool of the given size; workers <= 0
// selects GOMAXPROCS, workers == 1 still pools (one worker plus the
// caller) but small calls run serially either way.
func New(workers int) *Engine {
	return &Engine{p: pool.New(workers)}
}

// Workers returns the underlying pool size.
func (e *Engine) Workers() int { return e.p.Workers() }

// Phases returns the shard-timing accumulator (encrypt_shard /
// decrypt_shard / reduce_shard samples, one per shard).
func (e *Engine) Phases() *trace.SyncBreakdown { return e.p.Phases() }

// Close stops the worker pool. Idle workers cost nothing, so long-lived
// processes may simply never call it.
func (e *Engine) Close() { e.p.Close() }

// elemBytes is the per-element footprint used for shard sizing: the wider
// of the plaintext and ciphertext cells.
func elemBytes(s core.Scheme) int {
	b := s.PlainSize()
	if cs := s.CipherSize(); cs > b {
		b = cs
	}
	return b
}

// shardElems picks the per-shard element count for an n-element call, or
// returns n for the serial path.
func (e *Engine) shardElems(n, eb int) int {
	if e.p.Workers() <= 1 || n*eb < 2*MinShardBytes {
		return n
	}
	per := (n + e.p.Workers() - 1) / e.p.Workers()
	if lo := (MinShardBytes + eb - 1) / eb; per < lo {
		per = lo
	}
	if hi := MaxShardBytes / eb; hi >= 1 && per > hi {
		per = hi
	}
	return per
}

// EncryptAt shards s.EncryptAt(st, plain, cipher, n, off) over the pool.
// Bit-identical to the serial call; shard k covers elements
// [k·shard, (k+1)·shard) at global offset off+k·shard.
func (e *Engine) EncryptAt(s core.Scheme, st *keys.RankState, plain, cipher []byte, n, off int) error {
	ps, cs := s.PlainSize(), s.CipherSize()
	shard := e.shardElems(n, elemBytes(s))
	if shard >= n || len(plain) < n*ps || len(cipher) < n*cs {
		// Serial path; undersized buffers fall through so the scheme
		// reports its own length error instead of a slice panic here.
		return s.EncryptAt(st, plain, cipher, n, off)
	}
	return e.p.Run(n, shard, PhaseEncryptShard, func(start, count int) error {
		return s.EncryptAt(st, plain[start*ps:(start+count)*ps], cipher[start*cs:(start+count)*cs], count, off+start)
	})
}

// Encrypt is EncryptAt at offset 0.
func (e *Engine) Encrypt(s core.Scheme, st *keys.RankState, plain, cipher []byte, n int) error {
	return e.EncryptAt(s, st, plain, cipher, n, 0)
}

// DecryptAt shards s.DecryptAt(st, cipher, plain, n, off) over the pool.
func (e *Engine) DecryptAt(s core.Scheme, st *keys.RankState, cipher, plain []byte, n, off int) error {
	ps, cs := s.PlainSize(), s.CipherSize()
	shard := e.shardElems(n, elemBytes(s))
	if shard >= n || len(plain) < n*ps || len(cipher) < n*cs {
		return s.DecryptAt(st, cipher, plain, n, off)
	}
	return e.p.Run(n, shard, PhaseDecryptShard, func(start, count int) error {
		return s.DecryptAt(st, cipher[start*cs:(start+count)*cs], plain[start*ps:(start+count)*ps], count, off+start)
	})
}

// Decrypt is DecryptAt at offset 0.
func (e *Engine) Decrypt(s core.Scheme, st *keys.RankState, cipher, plain []byte, n int) error {
	return e.DecryptAt(s, st, cipher, plain, n, 0)
}

// Reduce shards the keyless elementwise fold dst = dst ⊙ src.
func (e *Engine) Reduce(s core.Scheme, dst, src []byte, n int) {
	cs := s.CipherSize()
	shard := e.shardElems(n, cs)
	if shard >= n || len(dst) < n*cs || len(src) < n*cs {
		s.Reduce(dst, src, n)
		return
	}
	e.p.Run(n, shard, PhaseReduceShard, func(start, count int) error {
		s.Reduce(dst[start*cs:(start+count)*cs], src[start*cs:(start+count)*cs], count)
		return nil
	})
}

// ReduceFunc adapts the sharded Reduce to the fold signature the
// message-passing layer's OpFrom and the INC trees accept.
func (e *Engine) ReduceFunc(s core.Scheme) func(dst, src []byte, n int) {
	return func(dst, src []byte, n int) { e.Reduce(s, dst, src, n) }
}
