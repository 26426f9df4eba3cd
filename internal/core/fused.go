package core

import (
	"sync"

	"hear/internal/prf"
)

// This file carries the shared machinery of the scheme kernels. Every
// encrypt/decrypt loop consumes PRF keystream 64 bytes at a time
// (prf.BlockSource) and combines each block with the data in one fused
// pass: each plaintext and ciphertext byte is touched exactly once and the
// keystream stays in an L1-resident staging buffer, so a working set larger
// than cache streams 2 buffers through DRAM rather than the 4 (plain,
// cipher, keystream write, keystream read) a materialized keystream plane
// costs — the fusion argument of HEAAN Demystified applied to HEAR's
// CTR-keystream cipher. The plane-materializing form of every kernel is the
// test oracle (twopass_test.go); TestFusedMatchesTwoPass holds each scheme
// to it byte for byte.
//
// Buffer aliasing: the loops read plain[done+o] and write cipher[done+o]
// strictly in order and never revisit a byte, so in-place operation (cipher
// aliasing plain) is safe — each element is loaded before its ciphertext is
// stored.

// noiseStream is one PRF noise stream of a fused kernel: a pooled
// prf.BlockSource. Streams are pooled (openNoise/close) rather than
// stack-allocated: the BlockSource hands interior pointers of its staging
// buffer to interface method calls, so escape analysis heap-allocates it —
// pooling makes the hot path allocation-free anyway, the same trade
// getScratch makes for the wrapper schemes' scratch.
type noiseStream struct {
	bs prf.BlockSource
}

var noiseStreamPool = sync.Pool{New: func() any { return new(noiseStream) }}

// openNoise takes a pooled stream positioned at byte offset off of stream
// nonce, sized to serve nb bytes in BlockBytes steps. Call close when done
// to return it to the pool.
func openNoise(enc prf.PRF, nonce, off uint64, nb int) *noiseStream {
	ns := noiseStreamPool.Get().(*noiseStream)
	ns.open(enc, nonce, off, nb)
	return ns
}

// open (re)positions the stream; the naive Θ(P) decrypt walks P streams
// through one pooled noiseStream this way.
func (ns *noiseStream) open(enc prf.PRF, nonce, off uint64, nb int) {
	ns.bs.Init(enc, nonce, off, nb)
}

// next returns the next BlockBytes noise bytes, valid until the following
// next call.
func (ns *noiseStream) next() *[prf.BlockBytes]byte { return ns.bs.Next() }

// close returns the stream to its pool. It must not be used after close.
func (ns *noiseStream) close() { noiseStreamPool.Put(ns) }

// blockLen clips one streaming block to the remaining span: the fused
// loops advance done in BlockBytes steps and process min(BlockBytes,
// nb−done) bytes of the final partial block. Every per-element stride (1,
// 2, 4, 8, 16 bytes) divides BlockBytes, so elements never straddle a
// block boundary.
func blockLen(nb, done int) int {
	if m := nb - done; m < prf.BlockBytes {
		return m
	}
	return prf.BlockBytes
}
