package prf

import (
	"crypto/cipher"
	"encoding/binary"
)

// This file is the streaming half of the PRF layer: instead of
// materializing a whole keystream plane into a destination buffer
// (Keystream) and combining it with the data in a second pass, a
// BlockSource yields the same bytes as consecutive 64-byte blocks that the
// fused scheme kernels (internal/core) consume and combine in a single
// cache-blocked loop. The keystream never round-trips through memory: a
// source stages at most sourceBufBytes (1 KiB, L1-resident) at a time, so
// the only DRAM traffic of a fused kernel is the plaintext read and the
// ciphertext write. HEAAN Demystified makes the general argument that HE
// pipelines are memory-bandwidth-bound and win by fusing stages; this is
// that argument applied to HEAR's CTR-keystream cipher.
//
// Bit-identity: a BlockSource produces exactly the bytes
// Keystream(dst, nonce, off) would place at the same offsets, for every
// backend — the cross-backend span-equivalence tests pin this, and it is
// what makes the fused kernels bit-identical to the two-pass reference.

// BlockBytes is the streaming block granularity of the fused kernels:
// 64 bytes — the native ChaCha20 block and four AES blocks. Every scheme's
// per-element keystream stride (1, 2, 4, 8, or hfp.NoiseBytes = 16 bytes)
// divides it, so ciphertext elements never straddle a block boundary.
const BlockBytes = 64

// sourceBufBytes is the staging capacity of one BlockSource: 16 blocks.
// Large enough to amortize per-refill overhead (one bulk backend call per
// KiB), small enough that two live sources (self + canceling stream) stay
// resident in L1 next to the plaintext and ciphertext lines they are fused
// with.
const sourceBufBytes = 16 * BlockBytes

// ctrCutoff is the span size at or below which the AES-fast backend
// streams via direct block encryptions instead of constructing a
// cipher.NewCTR stream — the same trade Keystream's small-message fast
// path makes: for one streaming block, the CTR object's allocation and
// setup cost more than they save.
const ctrCutoff = BlockBytes

// blockAtter is the 16-byte random-access block form the AES, SHA1, and
// xorshift backends implement. BlockSource stores the receiver behind this
// interface instead of binding a method closure, which keeps Init
// allocation-free.
type blockAtter interface {
	blockAt(dst *[BlockSize]byte, nonce, blockIdx uint64)
}

// sourceKind selects a BlockSource's refill strategy.
type sourceKind uint8

const (
	// kindGeneric refills through the PRF's own Keystream — correct for
	// any PRF; the fallback for implementations outside this package.
	// Every backend New constructs gets a specialised kind below.
	kindGeneric sourceKind = iota
	// kindBlockFn refills through a 16-byte blockFunc — the scalar AES,
	// SHA1, and xorshift backends, and small AES-fast spans.
	kindBlockFn
	// kindChaCha serializes ChaCha cores straight into the staging buffer,
	// skipping the copy Keystream's bulk path performs per block.
	kindChaCha
	// kindCTR drives one persistent cipher.Stream (AES-NI pipelined
	// assembly), constructed once per source — the same single allocation
	// the two-pass path pays per bulk Keystream call.
	kindCTR
)

// BlockSource streams consecutive BlockBytes-sized keystream blocks of one
// stream, starting at an arbitrary byte offset. The zero value is not
// valid; initialize with Init (or KeystreamBlocks). A source is a plain
// value — no retained references, safe to keep on the stack — and is NOT
// safe for concurrent use.
type BlockSource struct {
	kind  sourceKind
	nonce uint64
	off   uint64 // stream byte offset of the next refill (block-aligned)
	left  int    // span bytes not yet generated (generation budget)
	pos   int    // read position in buf
	avail int    // valid bytes in buf

	generic PRF           // kindGeneric
	fn      blockAtter    // kindBlockFn
	ch      *chachaPRF    // kindChaCha
	ctr     cipher.Stream // kindCTR

	buf [sourceBufBytes]byte
}

// KeystreamBlocks returns a BlockSource positioned at byte offset off of
// stream nonce, sized to serve total bytes (generation never runs more
// than one block past off+total). Consuming the source block-by-block
// yields exactly the bytes Keystream(dst, nonce, off) with len(dst) ≥
// total would produce. Prefer declaring a BlockSource and calling Init on
// it where the 1 KiB staging buffer should stay on the caller's stack.
func KeystreamBlocks(p PRF, nonce, off uint64, total int) *BlockSource {
	b := new(BlockSource)
	b.Init(p, nonce, off, total)
	return b
}

// Init (re)positions the source at byte offset off of stream nonce,
// expecting to serve total bytes. It performs the initial fill, so the
// head block — including any unaligned prefix — is ready for the first
// Next call.
func (b *BlockSource) Init(p PRF, nonce, off uint64, total int) {
	if total < 0 {
		total = 0
	}
	b.nonce = nonce
	b.pos = 0
	b.avail = 0

	// Align the stream cursor down to a block boundary; the inner offset
	// becomes the initial read position, so Next's first block starts at
	// exactly off.
	base := off &^ (BlockBytes - 1)
	inner := int(off - base)
	b.off = base
	b.left = roundUpBlock(inner + total)

	switch p := p.(type) {
	case *chachaPRF:
		b.kind = kindChaCha
		b.ch = p
	case *aesFast:
		if b.left <= ctrCutoff {
			// Small span: direct block encryptions, like Keystream's
			// small-message fast path — no CTR construction, no allocation.
			b.kind = kindBlockFn
			b.fn = p
		} else {
			b.kind = kindCTR
			var iv [BlockSize]byte
			binary.BigEndian.PutUint64(iv[0:8], nonce)
			binary.BigEndian.PutUint64(iv[8:16], base/BlockSize)
			b.ctr = cipher.NewCTR(p.block, iv[:])
		}
	case blockAtter: // aesScalar, sha1PRF, xorshiftPRF
		b.kind = kindBlockFn
		b.fn = p
	default:
		b.kind = kindGeneric
		b.generic = p
	}

	b.fill()
	b.pos = inner
}

// Next returns the next BlockBytes keystream bytes. The returned block is
// valid until the following Next call. Reading past the total declared at
// Init stays correct (the stream simply continues) but generates in
// single-block steps.
func (b *BlockSource) Next() *[BlockBytes]byte {
	if b.pos+BlockBytes > b.avail {
		b.refill()
	}
	p := (*[BlockBytes]byte)(b.buf[b.pos:])
	b.pos += BlockBytes
	return p
}

// refill compacts the unread tail (at most BlockBytes−1 bytes of a block
// split by the buffer end — only when the source started unaligned) to the
// front and generates the next run of whole blocks behind it.
func (b *BlockSource) refill() {
	tail := copy(b.buf[:], b.buf[b.pos:b.avail])
	b.pos = 0
	b.avail = tail
	b.fill()
}

// fill appends whole keystream blocks at the stream cursor to buf[avail:],
// bounded by the staging capacity and the remaining span budget.
func (b *BlockSource) fill() {
	g := (len(b.buf) - b.avail) &^ (BlockBytes - 1)
	if b.left < g {
		g = b.left
	}
	if g < BlockBytes {
		g = BlockBytes // consumer read past the declared total
	}
	region := b.buf[b.avail : b.avail+g]
	switch b.kind {
	case kindChaCha:
		for i := 0; i < g; i += chachaBlockBytes {
			st := b.ch.state(b.nonce, (b.off+uint64(i))/chachaBlockBytes)
			chachaCore(&st, (*[chachaBlockBytes]byte)(region[i:]))
		}
	case kindCTR:
		for i := range region {
			region[i] = 0
		}
		b.ctr.XORKeyStream(region, region)
	case kindBlockFn:
		for i := 0; i < g; i += BlockSize {
			b.fn.blockAt((*[BlockSize]byte)(region[i:]), b.nonce, (b.off+uint64(i))/BlockSize)
		}
	default:
		b.generic.Keystream(region, b.nonce, b.off)
	}
	b.avail += g
	b.off += uint64(g)
	if b.left -= g; b.left < 0 {
		b.left = 0
	}
}

// roundUpBlock rounds n up to the next multiple of BlockBytes.
func roundUpBlock(n int) int {
	return (n + BlockBytes - 1) &^ (BlockBytes - 1)
}
