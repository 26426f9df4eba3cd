package noise

import (
	"bytes"
	"sync/atomic"
	"testing"

	"hear/internal/core"
	"hear/internal/engine/pool"
	"hear/internal/keys"
	"hear/internal/prf"
)

// seqReader is a deterministic entropy source for tests.
type seqReader struct{ next byte }

func (r *seqReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = r.next
		r.next++
	}
	return len(p), nil
}

// intProfile mirrors the integer schemes: width-8 noise, self+next streams
// on encrypt, root stream on decrypt.
var intProfile = core.NoiseProfile{
	BytesPerElem: 8,
	Encrypt:      []core.NoiseClass{core.NoiseSelf, core.NoiseNext},
	Decrypt:      []core.NoiseClass{core.NoiseRoot},
}

// attachOne generates a group and attaches a prefetcher to rank 0.
func attachOne(t *testing.T, size, budget int, wp *pool.Pool) (*keys.RankState, *Prefetcher) {
	t.Helper()
	states, err := keys.Generate(size, keys.Config{Rand: &seqReader{next: 7}})
	if err != nil {
		t.Fatal(err)
	}
	st := states[0]
	p := Attach(st, wp, nil, budget)
	if p == nil {
		t.Fatal("Attach returned nil for a positive budget")
	}
	return st, p
}

func TestPrefetchAttachDisabledByZeroBudget(t *testing.T) {
	states, err := keys.Generate(2, keys.Config{Rand: &seqReader{}})
	if err != nil {
		t.Fatal(err)
	}
	before := states[0].Enc
	if p := Attach(states[0], nil, nil, 0); p != nil {
		t.Fatal("budget 0 should disable prefetch")
	}
	if states[0].Enc != before {
		t.Error("disabled Attach must not replace the state's PRF")
	}
	// A nil prefetcher is inert, not a crash.
	var p *Prefetcher
	p.Kick(intProfile, 1<<20)
}

// TestPrefetchPlanPredictsAdvance pins Next against the real schedule: the
// plan computed before Advance must equal Current computed after it.
func TestPrefetchPlanPredictsAdvance(t *testing.T) {
	states, err := keys.Generate(4, keys.Config{Rand: &seqReader{next: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range states {
		for round := 0; round < 3; round++ {
			predicted := Next(st)
			st.Advance()
			if got := Current(st); got != predicted {
				t.Fatalf("rank %d round %d: predicted %+v, got %+v", st.Rank, round, predicted, got)
			}
		}
	}
}

// TestPrefetchKeystreamBitIdentity is invariant 1: whatever mix of cached
// prefix and live tail serves a read, the bytes must equal a pure backend
// read — across offsets, spans longer than the plane, and unknown nonces.
func TestPrefetchKeystreamBitIdentity(t *testing.T) {
	const elems = 1 << 10 // 8 KiB planes
	st, p := attachOne(t, 3, 1<<20, nil)
	p.Kick(intProfile, elems)
	p.Drain()

	planeBytes := uint64(elems * intProfile.BytesPerElem)
	backend := p.Backend()
	nonces := []uint64{st.SelfNonce(), st.NextNonce(), st.RootNonce(), st.CollectiveNonce(), 0xdeadbeef}
	offs := []uint64{0, 1, 13, prf.BlockSize, planeBytes / 2, planeBytes - 5, planeBytes, planeBytes + 99}
	for _, nonce := range nonces {
		for _, off := range offs {
			for _, n := range []int{1, 64, int(planeBytes), int(planeBytes) + 4096} {
				got := make([]byte, n)
				want := make([]byte, n)
				st.Enc.Keystream(got, nonce, off)
				backend.Keystream(want, nonce, off)
				if !bytes.Equal(got, want) {
					t.Fatalf("nonce %#x off %d len %d: cached read differs from backend", nonce, off, n)
				}
			}
		}
	}
	s := p.Stats()
	// The current epoch's decrypt plane (root nonce) exists, so some of the
	// reads above must have been served from cache.
	if s.HitBytes == 0 {
		t.Error("no hit bytes despite a resident current-epoch plane")
	}
	if s.MissBytes == 0 {
		t.Error("no miss bytes despite unknown-nonce reads")
	}
}

// TestPrefetchNextEpochPlanesHitAfterAdvance drives the steady-state cycle:
// kick during epoch e, advance to e+1, and the speculated planes serve the
// new epoch's encrypt and decrypt streams.
func TestPrefetchNextEpochPlanesHitAfterAdvance(t *testing.T) {
	const elems = 1 << 10
	st, p := attachOne(t, 3, 1<<20, nil)
	p.Kick(intProfile, elems)
	p.Drain()
	st.Advance()

	want := uint64(0)
	for _, nonce := range []uint64{st.SelfNonce(), st.NextNonce(), st.RootNonce()} {
		dst := make([]byte, elems*intProfile.BytesPerElem)
		st.Enc.Keystream(dst, nonce, 0)
		ref := make([]byte, len(dst))
		p.Backend().Keystream(ref, nonce, 0)
		if !bytes.Equal(dst, ref) {
			t.Fatalf("nonce %#x: post-advance read differs from backend", nonce)
		}
		want += uint64(len(dst))
	}
	if s := p.Stats(); s.HitBytes != want {
		t.Errorf("hit bytes = %d, want %d (all three next-epoch planes resident)", s.HitBytes, want)
	}
}

// TestPrefetchStaleEpochIsMiss is invariant 2: once the schedule has moved
// past the speculated epoch — the verified-retry ladder re-advancing, a
// sealer catching up — stale planes must never serve, even for a matching
// nonce value.
func TestPrefetchStaleEpochIsMiss(t *testing.T) {
	const elems = 1 << 10
	st, p := attachOne(t, 3, 1<<20, nil)
	speculated := Next(st)
	p.Kick(intProfile, elems)
	p.Drain()

	// Two advances: the state is now one epoch past every speculated plane.
	st.Advance()
	st.Advance()

	dst := make([]byte, elems*intProfile.BytesPerElem)
	ref := make([]byte, len(dst))
	for cl, nonce := range speculated.Nonces {
		st.Enc.Keystream(dst, nonce, 0)
		p.Backend().Keystream(ref, nonce, 0)
		if !bytes.Equal(dst, ref) {
			t.Fatalf("class %d: stale read differs from backend", cl)
		}
	}
	if s := p.Stats(); s.HitBytes != 0 {
		t.Errorf("hit bytes = %d, want 0: stale-epoch planes must not serve", s.HitBytes)
	}

	// The next kick reaps the stale planes.
	p.Kick(intProfile, elems)
	p.Drain()
	if s := p.Stats(); s.RecycledPlanes == 0 {
		t.Error("stale planes were not recycled by the next kick")
	}
}

// gatedPRF blocks its first Keystream call until released, signalling entry
// first. It lets a test observe the cache while generation is in flight.
type gatedPRF struct {
	prf.PRF
	calls   atomic.Uint64
	entered chan struct{}
	release chan struct{}
}

func (g *gatedPRF) Keystream(dst []byte, nonce, off uint64) {
	if g.calls.Add(1) == 1 {
		close(g.entered)
		<-g.release
	}
	g.PRF.Keystream(dst, nonce, off)
}

// TestPrefetchConsumeNeverWaitsOnGeneration is invariant 3: a plane still
// being generated is a plain miss; the consume path falls through to the
// backend instead of blocking.
func TestPrefetchConsumeNeverWaitsOnGeneration(t *testing.T) {
	states, err := keys.Generate(3, keys.Config{Rand: &seqReader{next: 11}})
	if err != nil {
		t.Fatal(err)
	}
	st := states[0]
	gate := &gatedPRF{PRF: st.Enc, entered: make(chan struct{}), release: make(chan struct{})}
	st.Enc = gate
	p := Attach(st, nil, nil, 1<<20)

	const elems = 1 << 10
	p.Kick(intProfile, elems)
	<-gate.entered // generation goroutine is parked inside the backend

	dst := make([]byte, elems*intProfile.BytesPerElem)
	ref := make([]byte, len(dst))
	st.Enc.Keystream(dst, st.RootNonce(), 0) // would deadlock if consume waited
	if s := p.Stats(); s.HitBytes != 0 || s.MissBytes != uint64(len(dst)) {
		t.Errorf("in-flight plane served: hit=%d miss=%d", s.HitBytes, s.MissBytes)
	}

	close(gate.release)
	p.Drain()
	st.Enc.Keystream(dst, st.RootNonce(), 0)
	p.Backend().Keystream(ref, st.RootNonce(), 0)
	if !bytes.Equal(dst, ref) {
		t.Fatal("post-generation read differs from backend")
	}
	if s := p.Stats(); s.HitBytes != uint64(len(dst)) {
		t.Errorf("ready plane did not serve: hit=%d", s.HitBytes)
	}
}

// TestPrefetchBudgetTruncatesPlanes caps the budget below one full plane:
// the truncated plane still prefix-hits and the tail composes bit-identically.
func TestPrefetchBudgetTruncatesPlanes(t *testing.T) {
	const budget = 4 << 10
	st, p := attachOne(t, 3, budget, nil)
	const elems = 1 << 12 // wants 32 KiB per plane, 8× the budget
	p.Kick(intProfile, elems)
	p.Drain()

	s := p.Stats()
	if s.GenBytes == 0 || s.GenBytes > budget {
		t.Fatalf("generated %d bytes, want within (0, %d]", s.GenBytes, budget)
	}
	dst := make([]byte, elems*intProfile.BytesPerElem)
	ref := make([]byte, len(dst))
	st.Enc.Keystream(dst, st.RootNonce(), 0)
	p.Backend().Keystream(ref, st.RootNonce(), 0)
	if !bytes.Equal(dst, ref) {
		t.Fatal("truncated-plane read differs from backend")
	}
	s = p.Stats()
	if s.HitBytes == 0 {
		t.Error("truncated plane did not prefix-hit")
	}
	if s.HitBytes+s.MissBytes != uint64(len(dst)) {
		t.Errorf("hit+miss = %d, want %d", s.HitBytes+s.MissBytes, len(dst))
	}
}

// TestPrefetchTinyCollectiveSkipped: below minPlaneBytes the kick is a no-op.
func TestPrefetchTinyCollectiveSkipped(t *testing.T) {
	_, p := attachOne(t, 3, 1<<20, nil)
	p.Kick(intProfile, 2) // 16 bytes of noise
	p.Drain()
	if s := p.Stats(); s.GenPlanes != 0 {
		t.Errorf("generated %d planes for a 16-byte collective", s.GenPlanes)
	}
}

// TestPrefetchLastRankSkipsNextStream: the last rank draws no canceling
// stream, so no NoiseNext plane may be generated for it.
func TestPrefetchLastRankSkipsNextStream(t *testing.T) {
	states, err := keys.Generate(3, keys.Config{Rand: &seqReader{next: 9}})
	if err != nil {
		t.Fatal(err)
	}
	st := states[2]
	if !st.IsLast() {
		t.Fatal("rank 2 of 3 should be last")
	}
	p := Attach(st, nil, nil, 1<<20)
	p.Kick(intProfile, 1<<10)
	p.Drain()
	// Root (cur) + self (next) + root (next): exactly 3 planes, no next-key.
	if s := p.Stats(); s.GenPlanes != 3 {
		t.Errorf("last rank generated %d planes, want 3", s.GenPlanes)
	}
}

// TestPrefetchShardedGeneration runs generation across a worker pool with
// planes larger than one generation shard and checks bit-identity.
func TestPrefetchShardedGeneration(t *testing.T) {
	wp := pool.New(4)
	defer wp.Close()
	const elems = 1 << 16 // 512 KiB planes: two generation shards each
	st, p := attachOne(t, 3, 4<<20, wp)
	p.Kick(intProfile, elems)
	p.Drain()

	dst := make([]byte, elems*intProfile.BytesPerElem)
	ref := make([]byte, len(dst))
	for _, nonce := range []uint64{st.RootNonce()} {
		st.Enc.Keystream(dst, nonce, 0)
		p.Backend().Keystream(ref, nonce, 0)
		if !bytes.Equal(dst, ref) {
			t.Fatal("sharded generation produced wrong bytes")
		}
	}
	if s := p.Stats(); s.HitBytes != uint64(len(dst)) {
		t.Errorf("hit bytes = %d, want %d", s.HitBytes, len(dst))
	}
}

// TestPrefetchUint64BypassesCache: point queries are backend-exact.
func TestPrefetchUint64BypassesCache(t *testing.T) {
	st, p := attachOne(t, 3, 1<<20, nil)
	p.Kick(intProfile, 1<<10)
	p.Drain()
	for idx := uint64(0); idx < 64; idx++ {
		if got, want := st.Enc.Uint64(st.RootNonce(), idx), p.Backend().Uint64(st.RootNonce(), idx); got != want {
			t.Fatalf("idx %d: Uint64 = %#x, backend = %#x", idx, got, want)
		}
	}
	if s := p.Stats(); s.HitBytes != 0 || s.MissBytes != 0 {
		t.Error("point queries must not touch the bulk cache counters")
	}
}

// TestPrefetchRepeatedKicksAreIdempotent: re-kicking the same epoch must not
// duplicate planes or regenerate existing ones.
func TestPrefetchRepeatedKicksAreIdempotent(t *testing.T) {
	_, p := attachOne(t, 3, 1<<20, nil)
	p.Kick(intProfile, 1<<10)
	p.Drain()
	first := p.Stats().GenPlanes
	for i := 0; i < 5; i++ {
		p.Kick(intProfile, 1<<10)
	}
	p.Drain()
	if again := p.Stats().GenPlanes; again != first {
		t.Errorf("re-kick grew planes from %d to %d", first, again)
	}
}

// TestCachedSpanReportsPlanePrefix pins the prf.SpanCache probing contract
// the fused kernels rely on: the reported prefix is block-aligned, never
// longer than the resident plane suffix, zero for unknown nonces, and the
// remainder of every probe is accounted as a miss.
func TestCachedSpanReportsPlanePrefix(t *testing.T) {
	const elems = 1 << 10
	st, p := attachOne(t, 3, 1<<20, nil)
	p.Kick(intProfile, elems)
	p.Drain()

	sc, ok := st.Enc.(prf.SpanCache)
	if !ok {
		t.Fatal("attached PRF does not implement prf.SpanCache")
	}
	if sc.Generator() != p.Backend() {
		t.Fatal("Generator must expose the live backend")
	}

	planeBytes := elems * intProfile.BytesPerElem
	root := st.RootNonce()
	demanded := uint64(0)
	for _, tc := range []struct {
		off  uint64
		n    int
		want int
	}{
		{0, planeBytes, planeBytes},       // full plane
		{0, planeBytes + 512, planeBytes}, // past the plane: clipped
		{64, 256, 256},                    // aligned interior span
		{24, 256, 256},                    // unaligned offset: length is what must be block-granular
		{uint64(planeBytes), 128, 0},      // starts past the plane
		{uint64(planeBytes) - 32, 128, 0}, // sub-block suffix rounds to 0
		{0, 0, 0},                         // empty span
	} {
		if got := sc.CachedSpan(root, tc.off, tc.n); got != tc.want {
			t.Errorf("CachedSpan(root, %d, %d) = %d, want %d", tc.off, tc.n, got, tc.want)
		}
		demanded += uint64(tc.n - tc.want) // CachedSpan accounts the remainder as miss
	}
	if got := sc.CachedSpan(0xdeadbeef, 0, 512); got != 0 {
		t.Errorf("CachedSpan(unknown nonce) = %d, want 0", got)
	}
	demanded += 512
	if s := p.Stats(); s.MissBytes != demanded {
		t.Errorf("miss bytes = %d, want %d (probe remainders)", s.MissBytes, demanded)
	}
}

// fusedStates builds two identical key groups from the same deterministic
// seed: one to attach a prefetcher to, one as the pure-backend reference.
func fusedStates(t *testing.T, size int, seed byte) (*keys.RankState, *keys.RankState) {
	t.Helper()
	a, err := keys.Generate(size, keys.Config{Rand: &seqReader{next: seed}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := keys.Generate(size, keys.Config{Rand: &seqReader{next: seed}})
	if err != nil {
		t.Fatal(err)
	}
	return a[0], b[0]
}

// TestFusedThroughPrefetcherBitIdentity drives a scheme through an attached
// prefetcher and checks every byte against the same scheme on an
// un-prefetched state (the path internal/core pins to its two-pass oracle),
// across full-hit planes (post-advance), truncated planes (prefix hit +
// generated tail), and unaligned element offsets.
func TestFusedThroughPrefetcherBitIdentity(t *testing.T) {
	scheme, err := core.NewIntSum(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		budget  int
		advance bool
	}{
		// All planes resident; advancing makes the speculated next-epoch
		// planes cover the current epoch's three streams.
		{"full-plane", 1 << 20, true},
		// The budget covers only a truncated current-epoch decrypt plane:
		// decrypt serves a prefix from it and fuses the generated tail,
		// encrypt is a full fusion miss.
		{"truncated-plane", 4 << 10, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const elems = 1 << 10
			st, ref := fusedStates(t, 3, 21)
			p := Attach(st, nil, nil, tc.budget)
			p.Kick(intProfile, elems)
			p.Drain()
			if tc.advance {
				st.Advance()
				ref.Advance()
			}

			for _, off := range []int{0, 3, 129} {
				n := elems - off
				plain := make([]byte, n*8)
				for i := range plain {
					plain[i] = byte(i * 31)
				}
				cipher := make([]byte, n*8)
				wantCipher := make([]byte, n*8)
				if err := scheme.EncryptAt(st, plain, cipher, n, off); err != nil {
					t.Fatal(err)
				}
				if err := scheme.EncryptAt(ref, plain, wantCipher, n, off); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(cipher, wantCipher) {
					t.Fatalf("off %d: ciphertext through the prefetcher differs from the un-prefetched reference", off)
				}

				got := make([]byte, n*8)
				want := make([]byte, n*8)
				if err := scheme.DecryptAt(st, cipher, got, n, off); err != nil {
					t.Fatal(err)
				}
				if err := scheme.DecryptAt(ref, wantCipher, want, n, off); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("off %d: plaintext through the prefetcher differs from the un-prefetched reference", off)
				}
			}
			if s := p.Stats(); s.HitBytes == 0 {
				t.Error("no hit bytes: fused kernels never touched the plane cache")
			}
		})
	}
}

// TestFusedPrefetcherAccountingExact: one fused encrypt+decrypt over fully
// resident planes demands 3 noise streams (self, next, root) and every byte
// must be accounted — all hits, no misses, hit+miss == bytes demanded.
func TestFusedPrefetcherAccountingExact(t *testing.T) {
	scheme, err := core.NewIntSum(64)
	if err != nil {
		t.Fatal(err)
	}
	const elems = 1 << 10
	st, _ := fusedStates(t, 3, 33)
	p := Attach(st, nil, nil, 1<<20)
	p.Kick(intProfile, elems)
	p.Drain()
	st.Advance()

	nb := elems * 8
	buf := make([]byte, nb)
	if err := scheme.EncryptAt(st, buf, buf, elems, 0); err != nil {
		t.Fatal(err)
	}
	if err := scheme.DecryptAt(st, buf, buf, elems, 0); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if want := uint64(3 * nb); s.HitBytes != want || s.MissBytes != 0 {
		t.Errorf("hit=%d miss=%d, want hit=%d miss=0 (3 fully resident streams)", s.HitBytes, s.MissBytes, want)
	}
}

// TestPrefetchSteadyStateManyEpochs cycles kick/advance/consume across many
// epochs, checking bit-identity and a warm hit rate once the cache is primed.
func TestPrefetchSteadyStateManyEpochs(t *testing.T) {
	const elems = 1 << 10
	st, p := attachOne(t, 3, 1<<20, nil)
	planeBytes := elems * intProfile.BytesPerElem
	dst := make([]byte, planeBytes)
	ref := make([]byte, planeBytes)
	for epoch := 0; epoch < 8; epoch++ {
		p.Kick(intProfile, elems)
		p.Drain() // stand-in for the communication window
		for _, nonce := range []uint64{st.SelfNonce(), st.NextNonce(), st.RootNonce()} {
			st.Enc.Keystream(dst, nonce, 0)
			p.Backend().Keystream(ref, nonce, 0)
			if !bytes.Equal(dst, ref) {
				t.Fatalf("epoch %d nonce %#x: mismatch", epoch, nonce)
			}
		}
		st.Advance()
	}
	s := p.Stats()
	if s.HitRate() < 0.5 {
		t.Errorf("steady-state hit rate %.2f, want >= 0.5 (stats: %+v)", s.HitRate(), s)
	}
}
