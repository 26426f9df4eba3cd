package hear

import (
	"math"
	"runtime/debug"
	"testing"
	"time"

	"hear/internal/core/fold"
	"hear/internal/homac"
	"hear/internal/mpi"
	"hear/internal/prf"
)

// Regression: Options{EnableP2P: true} with a nil Rand used to dereference
// nil in the pairwise-matrix draw; fill() now defaults to crypto/rand.
func TestInitEnableP2PNilRand(t *testing.T) {
	w := mpi.NewWorld(4)
	ctxs, err := Init(w, Options{EnableP2P: true})
	if err != nil {
		t.Fatalf("Init with EnableP2P and nil Rand: %v", err)
	}
	if len(ctxs) != 4 {
		t.Fatalf("got %d contexts, want 4", len(ctxs))
	}
	for _, c := range ctxs {
		if c.pairKeys == nil {
			t.Fatal("pairwise keys not generated")
		}
	}
	// The matrix must be symmetric and drawn from real entropy (two distinct
	// off-diagonal entries being equal by chance is ~2^-64).
	if ctxs[0].pairKeys[1] != ctxs[1].pairKeys[0] {
		t.Error("pairwise key matrix not symmetric")
	}
	if ctxs[0].pairKeys[1] == ctxs[0].pairKeys[2] {
		t.Error("pairwise keys not distinct — entropy source suspect")
	}
}

// gatewayFold plays the key-blind aggregator: it folds sealed lanes with
// the same internal/core/fold kernels the gateway server runs.
func gatewayFold(t *testing.T, sealers []*GatewaySealer, inputs [][]int64) (cipher, tags []byte) {
	t.Helper()
	for i, g := range sealers {
		c, tg, err := g.Seal(inputs[i], 0)
		if err != nil {
			t.Fatalf("seal %d: %v", i, err)
		}
		if i == 0 {
			cipher, tags = c, tg
			continue
		}
		fold.SumUint64(cipher, c)
		if tags != nil {
			fold.SumMod61(tags, tg)
		}
	}
	return cipher, tags
}

func TestGatewaySealerRoundTrip(t *testing.T) {
	const P, n = 5, 257
	w := mpi.NewWorld(P)
	ctxs, err := Init(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := NewVerifier(0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	sealers := make([]*GatewaySealer, P)
	inputs := make([][]int64, P)
	want := make([]int64, n)
	for i := range sealers {
		sealers[i] = ctxs[i].NewGatewaySealer(verifier)
		inputs[i] = make([]int64, n)
		for j := range inputs[i] {
			inputs[i][j] = int64(i*1000 + j - 300)
			want[j] += inputs[i][j]
		}
	}

	for round := 0; round < 3; round++ { // k_c advances stay in lockstep
		cipher, tags := gatewayFold(t, sealers, inputs)
		for i, g := range sealers {
			if err := g.Verify(cipher, tags); err != nil {
				t.Fatalf("round %d rank %d verify: %v", round, i, err)
			}
			got := make([]int64, n)
			if err := g.Open(cipher, got); err != nil {
				t.Fatalf("round %d rank %d open: %v", round, i, err)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("round %d rank %d elem %d = %d, want %d", round, i, j, got[j], want[j])
				}
			}
		}
	}
}

func TestGatewaySealerDetectsTampering(t *testing.T) {
	const P = 3
	w := mpi.NewWorld(P)
	ctxs, err := Init(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := NewVerifier(42)
	if err != nil {
		t.Fatal(err)
	}
	sealers := make([]*GatewaySealer, P)
	inputs := make([][]int64, P)
	for i := range sealers {
		sealers[i] = ctxs[i].NewGatewaySealer(verifier)
		inputs[i] = []int64{1, 2, 3}
	}
	cipher, tags := gatewayFold(t, sealers, inputs)
	cipher[9] ^= 0x40 // a tampering gateway flips one aggregate bit
	err = sealers[0].Verify(cipher, tags)
	vf, ok := err.(*ErrVerificationFailed)
	if !ok {
		t.Fatalf("tampered aggregate verified: %v", err)
	}
	if vf.Element != 1 {
		t.Errorf("failure at element %d, want 1", vf.Element)
	}
	// Stripping the tag lane must not bypass verification.
	if err := sealers[0].Verify(cipher[:16], nil); err == nil {
		t.Error("nil tag lane accepted with verification enabled")
	}
}

func TestGatewaySealerUnverified(t *testing.T) {
	w := mpi.NewWorld(2)
	ctxs, err := Init(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := ctxs[0].NewGatewaySealer(nil), ctxs[1].NewGatewaySealer(nil)
	ca, ta, err := a.Seal([]int64{10, -4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ta != nil {
		t.Error("unverified seal produced tags")
	}
	cb, _, err := b.Seal([]int64{-7, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	fold.SumUint64(ca, cb)
	got := make([]int64, 2)
	if err := a.Open(ca, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 1 {
		t.Errorf("aggregate = %v, want [3 1]", got)
	}
}

// TestSealRefusesRunawayEpoch: the seal epoch is named by bytes off the
// wire, and the catch-up loop cannot be interrupted by any deadline — so an
// epoch further ahead than maxSealEpochLead is refused before the key moves,
// in bounded time, and the sealer stays usable at its own epoch.
func TestSealRefusesRunawayEpoch(t *testing.T) {
	w := mpi.NewWorld(2)
	ctxs, err := Init(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := ctxs[0].NewGatewaySealer(nil), ctxs[1].NewGatewaySealer(nil)
	cur := a.Epoch()
	for _, epoch := range []uint64{math.MaxUint64, cur + maxSealEpochLead + 1} {
		start := time.Now()
		if _, _, err := a.Seal([]int64{1}, epoch); err == nil {
			t.Errorf("Seal accepted epoch %d from epoch %d", epoch, cur)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("refusing epoch %d took %v", epoch, d)
		}
		if got := a.Epoch(); got != cur {
			t.Fatalf("refused Seal moved the epoch %d -> %d", cur, got)
		}
	}
	// The lead itself is legal, and the schedule carries on from there.
	for _, epoch := range []uint64{cur + maxSealEpochLead, 0} {
		ca, _, err := a.Seal([]int64{10, -4}, epoch)
		if err != nil {
			t.Fatalf("Seal at epoch %d from %d: %v", epoch, cur, err)
		}
		cb, _, err := b.Seal([]int64{-7, 5}, epoch)
		if err != nil {
			t.Fatal(err)
		}
		fold.SumUint64(ca, cb)
		got := make([]int64, 2)
		if err := a.Open(ca, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != 3 || got[1] != 1 {
			t.Errorf("aggregate after epoch %d = %v, want [3 1]", epoch, got)
		}
	}
}

// TestGatewaySealerRefusesWrongLaneLength: a reduced lane that is not
// exactly as long as the sealed vector used to verify or open as a prefix
// (n = len/8) and return nil with the rest of the result stale. Short, long
// and ragged lanes are all refused now, by the plain and the survivor forms,
// and out is left untouched.
func TestGatewaySealerRefusesWrongLaneLength(t *testing.T) {
	const P, n = 3, 16
	w := mpi.NewWorld(P)
	ctxs, err := Init(w, Options{SharedGroupKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := NewVerifier(0xabcdef)
	if err != nil {
		t.Fatal(err)
	}
	sealers := make([]*GatewaySealer, P)
	inputs := make([][]int64, P)
	for i := range sealers {
		sealers[i] = ctxs[i].NewGatewaySealer(verifier)
		inputs[i] = make([]int64, n)
		for j := range inputs[i] {
			inputs[i][j] = int64(i + j)
		}
	}
	cipher, tags := gatewayFold(t, sealers, inputs)
	all := []int{0, 1, 2}
	g := sealers[1]
	long := func(lane []byte) []byte { return append(append([]byte(nil), lane...), make([]byte, 8)...) }
	for _, tc := range []struct {
		name         string
		cipher, tags []byte
	}{
		{"short", cipher[:8*(n-1)], tags[:8*(n-1)]},
		{"long", long(cipher), long(tags)},
		{"ragged", cipher[:8*n-3], tags[:8*n-3]},
		{"short tags", cipher, tags[:8*(n-1)]},
		{"long tags", cipher, long(tags)},
		{"no tags", cipher, nil},
	} {
		if err := g.Verify(tc.cipher, tc.tags); err == nil {
			t.Errorf("%s: Verify accepted lanes of %d B / %d B for %d sealed elements", tc.name, len(tc.cipher), len(tc.tags), n)
		} else if _, mismatch := err.(*ErrVerificationFailed); mismatch {
			t.Errorf("%s: Verify reported a HoMAC mismatch, want a length error: %v", tc.name, err)
		}
		if err := g.VerifySurvivors(tc.cipher, tc.tags, all); err == nil {
			t.Errorf("%s: VerifySurvivors accepted the lanes", tc.name)
		}
		if len(tc.cipher) == len(cipher) {
			continue
		}
		out := make([]int64, n+1)
		for i := range out {
			out[i] = -99
		}
		if err := g.Open(tc.cipher, out); err == nil {
			t.Errorf("%s: Open accepted a %d B lane for %d sealed elements", tc.name, len(tc.cipher), n)
		}
		if err := g.OpenSurvivors(tc.cipher, out, all); err == nil {
			t.Errorf("%s: OpenSurvivors accepted the lane", tc.name)
		}
		for i, v := range out {
			if v != -99 {
				t.Fatalf("%s: refused Open wrote out[%d] = %d", tc.name, i, v)
			}
		}
	}
	// The exact lanes still verify and open.
	if err := g.Verify(cipher, tags); err != nil {
		t.Fatal(err)
	}
	out := make([]int64, n)
	if err := g.Open(cipher, out); err != nil {
		t.Fatal(err)
	}
	for j, v := range out {
		if want := int64(3*j + 3); v != want {
			t.Fatalf("elem %d = %d, want %d", j, v, want)
		}
	}
}

// raceBuild reports whether the test binary runs under the race detector,
// where sync.Pool drops items by design and pooled paths allocate.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	if bi != nil {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestSealerAllocs pins the sealer's steady state: once the context's lane
// scratch has grown to the round size, Seal + Verify + Open allocate
// nothing on a software PRF backend — at a gw_small-sized and a
// gw_cascade_1m-sized vector, tagged and untagged. On AES-fast the only
// allocations left are internal/prf's own, one CTR stream object per noise
// or key stream, which the bound counts.
func TestSealerAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("race-mode sync.Pool drops items; the gate runs race-free")
	}
	for _, backend := range []string{prf.BackendChaCha20, prf.BackendAESFast} {
		for _, n := range []int{128, 131072} {
			for _, tagged := range []bool{true, false} {
				w := mpi.NewWorld(2)
				ctxs, err := Init(w, Options{PRFBackend: backend})
				if err != nil {
					t.Fatal(err)
				}
				var verifier *homac.Vector
				if tagged {
					if verifier, err = NewVerifier(0x5eed); err != nil {
						t.Fatal(err)
					}
				}
				a, b := ctxs[0].NewGatewaySealer(verifier), ctxs[1].NewGatewaySealer(verifier)
				vals, out := make([]int64, n), make([]int64, n)
				for i := range vals {
					vals[i] = int64(i) - 7
				}
				round := func() {
					ca, ta, err := a.Seal(vals, 0)
					if err != nil {
						t.Fatal(err)
					}
					cb, tb, err := b.Seal(vals, 0)
					if err != nil {
						t.Fatal(err)
					}
					fold.SumUint64(ca, cb)
					if tagged {
						fold.SumMod61(ta, tb)
					}
					if err := a.Verify(ca, ta); err != nil {
						t.Fatal(err)
					}
					if err := a.Open(ca, out); err != nil {
						t.Fatal(err)
					}
					if out[0] != -14 || out[n-1] != 2*(int64(n)-8) {
						t.Fatalf("aggregate [%d … %d]", out[0], out[n-1])
					}
				}
				round() // grow the scratch, warm the stream pools
				// What is left is not the sealer's: each Seal advances the key
				// schedule (keys.RankState.Advance, one PRF.Uint64 call), and
				// AES-fast builds one CTR object per stream it opens — two
				// seals × (2 noise + 2 key streams) + 1 verify + 1 open.
				streams := 6.0
				if tagged {
					streams = 11
				}
				st := ctxs[0].st
				var bs prf.BlockSource
				perStream := testing.AllocsPerRun(10, func() { bs.Init(st.Enc, 1, 0, 8*n) })
				perAdvance := testing.AllocsPerRun(10, func() { st.Enc.Uint64(1, 0) }) // k_p's PRF is the same backend
				if backend == prf.BackendChaCha20 && perStream != 0 {
					t.Fatalf("chacha20 BlockSource allocates %.1f/Init; the test's baseline moved", perStream)
				}
				inherent := streams*perStream + 2*perAdvance
				if got := testing.AllocsPerRun(10, round); got > inherent {
					t.Errorf("%s n=%d tagged=%v: two seals + verify + open allocate %.1f/round, want ≤ %.0f (%.0f streams × %.1f + 2 key advances × %.1f)",
						backend, n, tagged, got, inherent, streams, perStream, perAdvance)
				}
			}
		}
	}
}
