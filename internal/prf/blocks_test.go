package prf

import (
	"bytes"
	"testing"
)

// testBackends builds one instance of every backend under a fixed key.
func testBackends(t *testing.T) map[string]PRF {
	t.Helper()
	key := []byte("0123456789abcdef")
	fast, err := NewAESFast(key)
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := NewAESScalar(key)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := NewChaCha20(key)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]PRF{
		BackendAESFast:   fast,
		BackendAESScalar: scalar,
		BackendChaCha20:  cc,
		BackendSHA1:      NewSHA1(key),
		BackendXorshift:  NewXorshift(0xDEADBEEF),
	}
}

// assemble reads total bytes starting at off through the block interface.
func assemble(p PRF, nonce, off uint64, total int) []byte {
	out := make([]byte, 0, total)
	bs := KeystreamBlocks(p, nonce, off, total)
	for len(out) < total {
		blk := bs.Next()
		take := total - len(out)
		if take > BlockBytes {
			take = BlockBytes
		}
		out = append(out, blk[:take]...)
	}
	return out
}

// Block-by-block assembly must equal the bulk Keystream for unaligned
// (off, len) spans — head and tail partial blocks, refill boundaries, and
// the small-span cutoffs — on every backend. This is the bit-identity
// foundation the fused scheme kernels stand on.
func TestKeystreamBlocksMatchesKeystream(t *testing.T) {
	offs := []uint64{0, 1, 7, 15, 16, 63, 64, 65, 127, 1000, 4096, 100003}
	lens := []int{1, 8, 16, 63, 64, 65, 256, 257, 1023, 1024, 1025, 5000}
	for name, p := range testBackends(t) {
		for _, nonce := range []uint64{0, 42, ^uint64(0) >> 1} {
			for _, off := range offs {
				for _, n := range lens {
					want := make([]byte, n)
					p.Keystream(want, nonce, off)
					got := assemble(p, nonce, off, n)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: nonce=%d off=%d len=%d: block assembly diverges from Keystream", name, nonce, off, n)
					}
				}
			}
		}
	}
}

// Backend → BlockSource, nothing in between: every backend New hands out
// gets a refill specialised to it, at a span below and above ctrCutoff.
// kindGeneric is only for PRFs this package did not construct; a stream
// consumer given a State's Enc must never land on it.
func TestBlockSourceInitSpecialisesEveryBackend(t *testing.T) {
	key := []byte("0123456789abcdef")
	for _, name := range []string{BackendAESFast, BackendAESScalar, BackendSHA1, BackendChaCha20, BackendXorshift} {
		p, err := New(name, key)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range []int{64, 64 << 10} {
			var bs BlockSource
			bs.Init(p, 7, 0, span)
			if bs.kind == kindGeneric {
				t.Errorf("%s: %d-byte span refills through the generic Keystream path", name, span)
			}
		}
	}
}

// Reading past the declared total must continue the stream correctly (the
// budget only sizes generation, it is not a hard stop).
func TestBlockSourcePastTotal(t *testing.T) {
	for name, p := range testBackends(t) {
		var bs BlockSource
		bs.Init(p, 9, 3, 10) // declare 10 bytes, read 8 blocks
		got := make([]byte, 0, 8*BlockBytes)
		for i := 0; i < 8; i++ {
			got = append(got, bs.Next()[:]...)
		}
		want := make([]byte, len(got))
		p.Keystream(want, 9, 3)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: reading past the declared total diverges", name)
		}
	}
}

// Re-Init must fully reposition a source (no state leaks between uses).
func TestBlockSourceReInit(t *testing.T) {
	for name, p := range testBackends(t) {
		var bs BlockSource
		bs.Init(p, 1, 0, 4096)
		for i := 0; i < 10; i++ {
			bs.Next()
		}
		bs.Init(p, 2, 129, 256)
		got := bs.Next()
		want := make([]byte, BlockBytes)
		p.Keystream(want, 2, 129)
		if !bytes.Equal(got[:], want) {
			t.Fatalf("%s: source mispositioned after re-Init", name)
		}
	}
}

// The streaming path must be allocation-free for the software backends and
// cost at most the two-pass path's single CTR construction for AES-fast.
func TestBlockSourceAllocs(t *testing.T) {
	backends := testBackends(t)
	consume := func(p PRF, total int) func() {
		var bs BlockSource
		return func() {
			bs.Init(p, 77, 0, total)
			for got := 0; got < total; got += BlockBytes {
				bs.Next()
			}
		}
	}
	for _, name := range []string{BackendChaCha20, BackendSHA1, BackendXorshift} {
		if a := testing.AllocsPerRun(50, consume(backends[name], 1<<14)); a != 0 {
			t.Errorf("%s: BlockSource allocates %.1f/run, want 0", name, a)
		}
	}
	// AES-scalar's blockAt inherently allocates its counter block per call
	// (interface-call escape); the streaming path must not add to that.
	{
		p := backends[BackendAESScalar]
		dst := make([]byte, 1<<14)
		twoPass := testing.AllocsPerRun(20, func() { p.Keystream(dst, 77, 0) })
		fused := testing.AllocsPerRun(20, consume(p, 1<<14))
		if fused > twoPass {
			t.Errorf("aes-scalar: fused path allocates %.1f/run > two-pass %.1f/run", fused, twoPass)
		}
	}
	// AES-fast: small spans ride the block-function path, bulk spans
	// construct one CTR stream per Init — in both regimes the streaming
	// path must not out-allocate the two-pass Keystream equivalent.
	for _, total := range []int{BlockBytes, 4 * BlockBytes, 1 << 16} {
		p := backends[BackendAESFast]
		dst := make([]byte, total)
		twoPass := testing.AllocsPerRun(20, func() { p.Keystream(dst, 77, 0) })
		fused := testing.AllocsPerRun(20, consume(p, total))
		if fused > twoPass {
			t.Errorf("aes-fast %d B span: fused path allocates %.1f/run > two-pass %.1f/run", total, fused, twoPass)
		}
	}
}
