// Package fold provides HEAR's keyless reduction kernels: the element-wise
// operators ⊙ that in-network devices — the §4 INC switch simulated by
// internal/inc, and the aggregation gateway of internal/aggsvc — execute on
// opaque ciphertext lanes. Splitting them out of internal/core keeps the
// untrusted aggregation side key-blind by construction: this package (and
// anything built on it alone) cannot link internal/keys, because folding
// needs no key material. internal/core's schemes reuse the same kernels for
// their Reduce methods, so host-side and network-side folds cannot drift.
package fold

import (
	"encoding/binary"

	"hear/internal/ring"
)

// Func is the element-wise reduction a keyless aggregator executes on two
// equal-length frames (dst = dst ⊙ src). It matches internal/inc's Fold
// contract: implementations fold min(len(dst), len(src)) whole lanes and
// never inspect more than the frame bytes.
type Func func(dst, src []byte)

// blockBytes is the cache-blocking granularity of the hot fold kernels:
// one 64-byte cache line, matching the streaming block size of the fused
// cipher kernels (prf.BlockBytes). Converting each block to a fixed-size
// array pointer hoists the bounds checks out of the unrolled inner loop.
const blockBytes = 64

// SumUint64 folds little-endian 64-bit lanes with wrapping addition — the
// integer SUM scheme's operator on Z_{2^64} (§5.1.1).
func SumUint64(dst, src []byte) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	o := 0
	for ; o+blockBytes <= n; o += blockBytes {
		d := (*[blockBytes]byte)(dst[o:])
		s := (*[blockBytes]byte)(src[o:])
		for i := 0; i < blockBytes; i += 8 {
			binary.LittleEndian.PutUint64(d[i:],
				binary.LittleEndian.Uint64(d[i:])+binary.LittleEndian.Uint64(s[i:]))
		}
	}
	for ; o+8 <= n; o += 8 {
		binary.LittleEndian.PutUint64(dst[o:],
			binary.LittleEndian.Uint64(dst[o:])+binary.LittleEndian.Uint64(src[o:]))
	}
}

// SumUint32 folds little-endian 32-bit lanes with wrapping addition.
func SumUint32(dst, src []byte) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	o := 0
	for ; o+blockBytes <= n; o += blockBytes {
		d := (*[blockBytes]byte)(dst[o:])
		s := (*[blockBytes]byte)(src[o:])
		for i := 0; i < blockBytes; i += 4 {
			binary.LittleEndian.PutUint32(d[i:],
				binary.LittleEndian.Uint32(d[i:])+binary.LittleEndian.Uint32(s[i:]))
		}
	}
	for ; o+4 <= n; o += 4 {
		binary.LittleEndian.PutUint32(dst[o:],
			binary.LittleEndian.Uint32(dst[o:])+binary.LittleEndian.Uint32(src[o:]))
	}
}

// Xor folds byte lanes with XOR — the §5.1.3 operator, width-agnostic.
// Whole cache-line blocks fold as 8-byte words; the tail byte-by-byte, so
// the fold stays exact for any frame length.
func Xor(dst, src []byte) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	o := 0
	for ; o+blockBytes <= n; o += blockBytes {
		d := (*[blockBytes]byte)(dst[o:])
		s := (*[blockBytes]byte)(src[o:])
		for i := 0; i < blockBytes; i += 8 {
			binary.LittleEndian.PutUint64(d[i:],
				binary.LittleEndian.Uint64(d[i:])^binary.LittleEndian.Uint64(s[i:]))
		}
	}
	for ; o+8 <= n; o += 8 {
		binary.LittleEndian.PutUint64(dst[o:],
			binary.LittleEndian.Uint64(dst[o:])^binary.LittleEndian.Uint64(src[o:]))
	}
	for ; o < n; o++ {
		dst[o] ^= src[o]
	}
}

// SumMod61 folds little-endian 64-bit lanes by addition modulo the HoMAC
// verification prime 2^61−1 (§5.5). Lanes must hold reduced residues; the
// modulus is public, so tag aggregation needs no keys either.
func SumMod61(dst, src []byte) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	o := 0
	for ; o+blockBytes <= n; o += blockBytes {
		d := (*[blockBytes]byte)(dst[o:])
		sb := (*[blockBytes]byte)(src[o:])
		for i := 0; i < blockBytes; i += 8 {
			binary.LittleEndian.PutUint64(d[i:],
				ring.Add61(binary.LittleEndian.Uint64(d[i:]), binary.LittleEndian.Uint64(sb[i:])))
		}
	}
	for ; o+8 <= n; o += 8 {
		binary.LittleEndian.PutUint64(dst[o:],
			ring.Add61(binary.LittleEndian.Uint64(dst[o:]), binary.LittleEndian.Uint64(src[o:])))
	}
}

// Sum returns the wrapping-addition fold for integer lanes of the given
// byte width (1, 2, 4, or 8). The 4- and 8-byte widths hit the specialized
// kernels above.
func Sum(width int) Func {
	switch width {
	case 4:
		return SumUint32
	case 8:
		return SumUint64
	}
	w := word{size: width}
	return func(dst, src []byte) {
		for j, n := 0, lanes(dst, src, width); j < n; j++ {
			w.store(dst, j, w.load(dst, j)+w.load(src, j))
		}
	}
}

// Prod returns the modular-multiplication fold on Z_{2^widthBits} — the
// integer PROD scheme's operator (§5.1.2).
func Prod(widthBits int) Func {
	r := ring.NewZ2(uint(widthBits))
	width := widthBits / 8
	w := word{size: width}
	return func(dst, src []byte) {
		for j, n := 0, lanes(dst, src, width); j < n; j++ {
			w.store(dst, j, r.Mul(w.load(dst, j), w.load(src, j)))
		}
	}
}

// lanes returns the number of whole width-byte lanes both frames cover.
func lanes(dst, src []byte, width int) int {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	return n / width
}

// word reads/writes little-endian integer lanes of 1, 2, 4, or 8 bytes.
type word struct{ size int }

func (w word) load(b []byte, j int) uint64 {
	o := j * w.size
	switch w.size {
	case 1:
		return uint64(b[o])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b[o:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b[o:]))
	default:
		return binary.LittleEndian.Uint64(b[o:])
	}
}

func (w word) store(b []byte, j int, v uint64) {
	o := j * w.size
	switch w.size {
	case 1:
		b[o] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b[o:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b[o:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(b[o:], v)
	}
}
