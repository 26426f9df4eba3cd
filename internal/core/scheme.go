// Package core implements HEAR's encryption schemes (§5): lossless integer
// SUM/PROD/XOR with the canceling technique (eqs. 1–3), the HFP float
// PROD and SUM v1 schemes (eqs. 6–7), the alternative log-space float
// addition (§5.3.4), fixed point (§5.2), and the naive Θ(P)-decrypt
// variant of Figure 1 used for ablation.
//
// Every scheme follows the same shape:
//
//	E(x) = x ★ noise        D(x) = x ★ noise⁻¹
//
// where the per-rank noises are PRF keystreams arranged to telescope under
// the reduction operator, so the aggregated ciphertext carries only rank
// 0's noise and decryption is Θ(1) per element.
package core

import (
	"fmt"
	"math"

	"hear/internal/keys"
)

// Scheme is one HEAR encryption scheme bound to a datatype and reduction
// operator. Scheme instances are immutable after construction (per-call
// scratch comes from a shared sync.Pool, not the instance), so all
// methods are safe for concurrent use. In particular the multicore cipher
// engine (internal/engine) shards one Encrypt/Decrypt/Reduce call over
// element ranges and runs the shards concurrently on one instance —
// counter-mode keystream offsets keep the shards independent.
type Scheme interface {
	// Name identifies the scheme, e.g. "int32-sum".
	Name() string
	// PlainSize is the plaintext element width in bytes on the wire.
	PlainSize() int
	// CipherSize is the ciphertext element width in bytes on the wire.
	// Integer schemes have CipherSize == PlainSize (zero inflation, R1);
	// float schemes inflate by γ bits rounded up to the next byte.
	CipherSize() int
	// Encrypt transforms n plaintext elements from plain into ciphertext
	// elements in cipher using the rank's keys and the current collective
	// key. The caller advances the collective key once per collective call
	// (keys.RankState.Advance), not per Encrypt. Equivalent to
	// EncryptAt(st, plain, cipher, n, 0).
	Encrypt(st *keys.RankState, plain, cipher []byte, n int) error
	// EncryptAt is Encrypt with a global element offset: element i of
	// plain is encrypted as vector element off+i, i.e. with noise
	// F(k + k_c + off + i). The pipelined data path (§6) uses it so that
	// blocks of one collective call never reuse a stream index — reuse
	// would break local safety.
	EncryptAt(st *keys.RankState, plain, cipher []byte, n, off int) error
	// Decrypt transforms n reduced ciphertext elements back to plaintext.
	Decrypt(st *keys.RankState, cipher, plain []byte, n int) error
	// DecryptAt is Decrypt at a global element offset, pairing EncryptAt.
	DecryptAt(st *keys.RankState, cipher, plain []byte, n, off int) error
	// Reduce folds src into dst elementwise with the scheme's operator ⊙
	// (dst = dst ⊙ src). This is the operation in-network devices execute;
	// it uses no key material.
	Reduce(dst, src []byte, n int)
}

// SpanError is the typed error every scheme entry point returns for an
// invalid (n, off) element span: negative counts or offsets, and spans
// whose byte addressing would overflow. It exists because the keystream
// byte offset is computed as uint64(off)·width — a negative off would
// silently wrap into a huge stream offset and produce garbage ciphertext
// instead of failing, which is exactly the class of misuse that must fail
// loudly in a cipher.
type SpanError struct {
	Scheme string // scheme name, e.g. "int64-sum"
	N, Off int    // the rejected element count and offset
	Reason string
}

func (e *SpanError) Error() string {
	return fmt.Sprintf("%s: invalid element span n=%d off=%d: %s", e.Scheme, e.N, e.Off, e.Reason)
}

// maxSpanElems bounds off+n so that (off+n)·stride stays representable for
// the widest per-element keystream stride in the system (hfp.NoiseBytes =
// 16 bytes). 2^59 elements is far beyond any addressable buffer; the bound
// exists to keep the uint64 keystream byte addressing exact.
const maxSpanElems = math.MaxInt64 / 16

// checkSpan validates buffer lengths and the (n, off) element span; every
// scheme entry point calls it so misuse fails loudly (with a typed
// *SpanError) instead of silently truncating data or wrapping the
// keystream offset.
func checkSpan(name string, plain, cipher []byte, n, off, plainSize, cipherSize int) error {
	if n < 0 {
		return &SpanError{Scheme: name, N: n, Off: off, Reason: "negative element count"}
	}
	if off < 0 {
		return &SpanError{Scheme: name, N: n, Off: off, Reason: "negative element offset"}
	}
	if off > maxSpanElems-n {
		return &SpanError{Scheme: name, N: n, Off: off, Reason: "span exceeds the keystream address space"}
	}
	if len(plain) < n*plainSize {
		return fmt.Errorf("%s: plaintext buffer %d B < %d elements × %d B", name, len(plain), n, plainSize)
	}
	if len(cipher) < n*cipherSize {
		return fmt.Errorf("%s: ciphertext buffer %d B < %d elements × %d B", name, len(cipher), n, cipherSize)
	}
	return nil
}

// checkLen is checkSpan at offset 0, for entry points without an offset
// parameter (the keyless subset folds).
func checkLen(name string, plain, cipher []byte, n, plainSize, cipherSize int) error {
	return checkSpan(name, plain, cipher, n, 0, plainSize, cipherSize)
}
