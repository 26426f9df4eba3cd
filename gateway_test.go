package hear

import (
	"math"
	"testing"
	"time"

	"hear/internal/core/fold"
	"hear/internal/mpi"
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
