package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"hear/internal/hfp"
	"hear/internal/keys"
	"hear/internal/prf"
)

// genStatesBackend is genStates with an explicit PRF backend.
func genStatesBackend(t testing.TB, p int, backend string) []*keys.RankState {
	t.Helper()
	states, err := keys.Generate(p, keys.Config{Rand: &seqReader{next: 1}, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	return states
}

// The fused single-pass kernels must be bit-identical to the two-pass
// reference for every scheme, on every backend, at canceling and last
// ranks, across offsets and sizes that exercise partial head/tail blocks
// and staging-buffer refills. Sizes 8 and 9 straddle the 64-byte span at
// which the AES-fast block source switches from single-block calls to a CTR
// stream.
func TestFusedMatchesTwoPass(t *testing.T) {
	backends := []string{prf.BackendAESFast, prf.BackendAESScalar, prf.BackendChaCha20, prf.BackendSHA1}
	offs := []int{0, 1, 7, 129}
	sizes := []int{1, 3, 8, 9, 100, 1000}
	for _, backend := range backends {
		states := genStatesBackend(t, 3, backend)
		starting := make([]uint64, 3)
		for i, s := range states {
			starting[i] = s.SelfKey
		}
		for _, rank := range []int{0, 2} { // canceling rank and last rank
			st := states[rank]
			st.Advance()
			for _, s := range allSchemes(t, 3, starting) {
				for _, off := range offs {
					for _, n := range sizes {
						plain := fillPlain(s, n)
						fusedC := make([]byte, n*s.CipherSize())
						refC := make([]byte, n*s.CipherSize())
						errF := s.EncryptAt(st, plain, fusedC, n, off)
						errR := encryptTwoPass(s, st, plain, refC, n, off)
						if errF != nil || errR != nil {
							t.Fatalf("%s/%s rank=%d off=%d n=%d: encrypt fused=%v ref=%v",
								backend, s.Name(), rank, off, n, errF, errR)
						}
						if !bytes.Equal(fusedC, refC) {
							t.Fatalf("%s/%s rank=%d off=%d n=%d: fused encrypt diverges from two-pass",
								backend, s.Name(), rank, off, n)
						}
						fusedP := make([]byte, n*s.PlainSize())
						refP := make([]byte, n*s.PlainSize())
						errF = s.DecryptAt(st, refC, fusedP, n, off)
						errR = decryptTwoPass(s, st, refC, refP, n, off)
						if errF != nil || errR != nil {
							t.Fatalf("%s/%s rank=%d off=%d n=%d: decrypt fused=%v ref=%v",
								backend, s.Name(), rank, off, n, errF, errR)
						}
						if !bytes.Equal(fusedP, refP) {
							t.Fatalf("%s/%s rank=%d off=%d n=%d: fused decrypt diverges from two-pass",
								backend, s.Name(), rank, off, n)
						}
					}
				}
			}
		}
	}
}

// In-place operation (cipher aliasing plain) must work on the fused path —
// the loops never revisit a byte. The typed entry points rely on it for
// every zero-inflation scheme, the float kernels' block-at-a-time seal
// (one and two streams) and open included.
func TestFusedInPlace(t *testing.T) {
	states := genStatesBackend(t, 2, prf.BackendChaCha20)
	st := states[0]
	st.Advance()
	sum, err := NewIntSum(64)
	if err != nil {
		t.Fatal(err)
	}
	fsum, err := NewFloatSum(hfp.FP32, 0)
	if err != nil {
		t.Fatal(err)
	}
	fprod, err := NewFloatProd(hfp.FP32, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for _, s := range []Scheme{sum, fsum, fprod} {
		plain := fillPlain(s, n)
		want := make([]byte, n*s.CipherSize())
		if err := s.EncryptAt(st, plain, want, n, 3); err != nil {
			t.Fatal(err)
		}
		buf := append([]byte(nil), plain...)
		if err := s.EncryptAt(st, buf, buf, n, 3); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("%s: in-place fused encrypt diverges from out-of-place", s.Name())
		}
		out := make([]byte, n*s.PlainSize())
		if err := s.DecryptAt(st, want, out, n, 3); err != nil {
			t.Fatal(err)
		}
		if err := s.DecryptAt(st, buf, buf, n, 3); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, out) {
			t.Fatalf("%s: in-place fused decrypt diverges from out-of-place", s.Name())
		}
	}
}

// The fused hot path must not allocate: software backends stream with zero
// allocations, and no scheme may allocate beyond its backend's inherent
// per-call cost (AES-fast constructs one CTR stream per noise stream,
// exactly like the two-pass path's bulk Keystream call).
func TestFusedAllocs(t *testing.T) {
	const n = 2048 // 16 KiB of int64 lanes, larger than the staging buffer
	sum, err := NewIntSum(64)
	if err != nil {
		t.Fatal(err)
	}
	xor, err := NewIntXor(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheme{sum, xor} {
		st := genStatesBackend(t, 2, prf.BackendChaCha20)[0]
		st.Advance()
		plain := fillPlain(s, n)
		cipher := make([]byte, n*s.CipherSize())
		if a := testing.AllocsPerRun(20, func() {
			if err := s.EncryptAt(st, plain, cipher, n, 0); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s/chacha20: fused encrypt allocates %.1f/run, want 0", s.Name(), a)
		}
		if a := testing.AllocsPerRun(20, func() {
			if err := s.DecryptAt(st, cipher, plain, n, 0); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s/chacha20: fused decrypt allocates %.1f/run, want 0", s.Name(), a)
		}
	}
	// The float schemes hold their kernel: nothing is built per call.
	v1, err := NewFloatSum(hfp.FP32, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := genStatesBackend(t, 2, prf.BackendChaCha20)[0]
	st.Advance()
	plain := fillPlain(v1, n)
	cipher := make([]byte, n*v1.CipherSize())
	out := make([]byte, len(plain))
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"encrypt", func() error { return v1.EncryptAt(st, plain, cipher, n, 0) }},
		{"decrypt", func() error { return v1.DecryptAt(st, cipher, out, n, 0) }},
		{"reduce", func() error { v1.Reduce(cipher, cipher, n); return nil }},
	} {
		if a := testing.AllocsPerRun(20, func() {
			if err := tc.call(); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s/chacha20: %s allocates %.1f/run, want 0", v1.Name(), tc.name, a)
		}
	}
	// float32-sum-v2 stages e^x in a fixed block: a 2 MiB call, twice the
	// pooled-scratch cap, used to take a transient 2 MiB buffer. Counted in
	// bytes so that the pin holds under the race detector, whose sync.Pool
	// drops (and so reallocates) a noise stream now and then.
	v2, err := NewFloatSumV2(hfp.FP32, 0)
	if err != nil {
		t.Fatal(err)
	}
	const big = 2 << 20 / 4
	plain, cipher, out = fillPlain(v2, big), make([]byte, big*v2.CipherSize()), make([]byte, big*4)
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"encrypt", func() error { return v2.EncryptAt(st, plain, cipher, big, 0) }},
		{"decrypt", func() error { return v2.DecryptAt(st, cipher, out, big, 0) }},
	} {
		if err := tc.call(); err != nil { // warms the stream pool
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.call()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 16<<10 {
			t.Errorf("%s: %s of 2 MiB allocates %d B, want none of the span staged", v2.Name(), tc.name, b)
		}
	}
	// AES-fast: fused must not out-allocate the two-pass reference.
	st = genStatesBackend(t, 2, prf.BackendAESFast)[0]
	st.Advance()
	plain, cipher = fillPlain(sum, n), make([]byte, n*8)
	fused := testing.AllocsPerRun(20, func() { sum.EncryptAt(st, plain, cipher, n, 0) })
	ref := testing.AllocsPerRun(20, func() { intSumEncryptTwoPass(sum, st, plain, cipher, n, 0) })
	if fused > ref {
		t.Errorf("int64-sum/aes-fast: fused encrypt allocates %.1f/run > two-pass %.1f/run", fused, ref)
	}
}

// Every scheme entry point must reject negative counts, negative offsets
// (which would silently wrap the uint64 keystream offset), and spans past
// the keystream address space, with a typed *SpanError.
func TestSpanErrors(t *testing.T) {
	states := genStates(t, 2)
	starting := []uint64{states[0].SelfKey, states[1].SelfKey}
	st := states[0]
	st.Advance()
	cases := []struct {
		name   string
		n, off int
	}{
		{"negative count", -1, 0},
		{"negative offset", 4, -1},
		{"negative offset wrap", 4, -1 << 40},
		{"address space overflow", 4, maxSpanElems - 3},
	}
	for _, s := range allSchemes(t, 2, starting) {
		plain := fillPlain(s, 8)
		cipher := make([]byte, 8*s.CipherSize())
		for _, tc := range cases {
			var spanErr *SpanError
			err := s.EncryptAt(st, plain, cipher, tc.n, tc.off)
			if !errors.As(err, &spanErr) {
				t.Errorf("%s: EncryptAt %s: got %v, want *SpanError", s.Name(), tc.name, err)
				continue
			}
			if spanErr.N != tc.n || spanErr.Off != tc.off {
				t.Errorf("%s: EncryptAt %s: SpanError carries n=%d off=%d, want n=%d off=%d",
					s.Name(), tc.name, spanErr.N, spanErr.Off, tc.n, tc.off)
			}
			if err := s.DecryptAt(st, cipher, plain, tc.n, tc.off); !errors.As(err, &spanErr) {
				t.Errorf("%s: DecryptAt %s: got %v, want *SpanError", s.Name(), tc.name, err)
			}
		}
		// Valid spans still pass (no over-rejection at the boundary).
		if err := s.EncryptAt(st, plain, cipher, 8, 0); err != nil {
			t.Errorf("%s: valid span rejected: %v", s.Name(), err)
		}
	}
}

// Short counts buffers must error out of the bool decoders instead of
// panicking in intWire.load (regression: DecodeOr/DecodeAnd used to index
// straight into counts).
func TestBoolCodecShortBuffers(t *testing.T) {
	c := BoolCodec{P: 3}
	out := make([]bool, 4)
	short := make([]byte, 4*len(out)-1)
	if err := c.DecodeOr(short, out); err == nil {
		t.Error("DecodeOr accepted a short counts buffer")
	}
	if err := c.DecodeAnd(short, out); err == nil {
		t.Error("DecodeAnd accepted a short counts buffer")
	}
	if err := c.EncodeBools(make([]bool, 4), short); err == nil {
		t.Error("EncodeBools accepted a short dst buffer")
	}
	// Exact-length buffers work.
	exact := make([]byte, 4*len(out))
	if err := c.EncodeBools([]bool{true, false, true, true}, exact); err != nil {
		t.Fatal(err)
	}
	if err := c.DecodeOr(exact, out); err != nil {
		t.Fatal(err)
	}
	if !out[0] || out[1] || !out[2] || !out[3] {
		t.Error("DecodeOr decoded wrong values")
	}
}
