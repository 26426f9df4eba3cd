package homac

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"

	"hear/internal/keys"
	"hear/internal/prf"
	"hear/internal/ring"
)

// The streaming block kernels against the per-word oracle of homac_test.go.

var matrixBackends = []string{prf.BackendAESFast, prf.BackendAESScalar, prf.BackendChaCha20, prf.BackendSHA1}

// genShared generates p shared-group states (so subset verification can
// derive run-boundary keys) over one backend, advanced one epoch.
func genShared(t testing.TB, p int, backend string) []*keys.RankState {
	t.Helper()
	states, err := keys.Generate(p, keys.Config{Rand: &seqReader{next: 5}, SharedGroup: true, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range states {
		st.Advance()
	}
	return states
}

func toBytes(w []uint64) []byte {
	b := make([]byte, 8*len(w))
	for i, x := range w {
		binary.LittleEndian.PutUint64(b[i*8:], x)
	}
	return b
}

func randWords(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = rng.Uint64()
	}
	return w
}

// TestTagMatchesPerWord: both lane forms of the streaming Tag produce the
// per-word tags byte for byte — backend × rank × size, the sizes straddling
// the 8-word block and the 1 KiB BlockSource staging buffer.
func TestTagMatchesPerWord(t *testing.T) {
	v, err := New(ring.MersennePrime61, 0xC0FFEE)
	if err != nil {
		t.Fatal(err)
	}
	const p = 5
	sizes := []int{0, 1, 7, 8, 9, 63, 64, 65, 1000, 131072}
	if testing.Short() {
		sizes = sizes[:len(sizes)-1]
	}
	for _, backend := range matrixBackends {
		states := genShared(t, p, backend)
		for _, rank := range []int{0, p / 2, p - 1} {
			st := states[rank]
			for _, n := range sizes {
				rng := rand.New(rand.NewSource(int64(n*31 + rank)))
				cipher := randWords(rng, n)
				want := make([]uint64, n)
				tagWord(v, st, cipher, want)

				got := make([]uint64, n)
				if err := v.Tag(st, cipher, got); err != nil {
					t.Fatal(err)
				}
				gotB := make([]byte, 8*n)
				if err := v.TagBytes(st, toBytes(cipher), gotB); err != nil {
					t.Fatal(err)
				}
				wantB := toBytes(want)
				if string(toBytes(got)) != string(wantB) {
					t.Errorf("%s rank %d n=%d: word-lane tags differ from per-word form", backend, rank, n)
				}
				if string(gotB) != string(wantB) {
					t.Errorf("%s rank %d n=%d: byte-lane tags differ from per-word form", backend, rank, n)
				}
			}
		}
	}
}

// aggregate tags random ciphertexts on every rank with the oracle and folds
// the lanes of the ranks not in missing, as the network would.
func aggregate(v *Vector, states []*keys.RankState, missing []int, n int) (cT, sigmaT []uint64, opener *keys.RankState, survivors int) {
	gone := make(map[int]bool)
	for _, m := range missing {
		gone[m] = true
	}
	rng := rand.New(rand.NewSource(int64(len(states)*1000 + n)))
	cT, sigmaT = make([]uint64, n), make([]uint64, n)
	for i, st := range states {
		cipher := randWords(rng, n)
		tags := make([]uint64, n)
		tagWord(v, st, cipher, tags)
		if gone[i] {
			continue
		}
		survivors++
		opener = st
		for j := range cT {
			cT[j] += cipher[j]
			sigmaT[j] = fp.Add(sigmaT[j], tags[j])
		}
	}
	return cT, sigmaT, opener, survivors
}

// checkVerdict holds every shipped verify form to the oracle's verdict.
func checkVerdict(t *testing.T, v *Vector, st *keys.RankState, missing []int, c, tags []uint64, wraps int, what string) {
	t.Helper()
	want, err := verifySubsetWord(v, st, missing, c, tags, wraps)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := v.VerifySubset(st, missing, c, tags, wraps); err != nil || got != want {
		t.Errorf("%s: VerifySubset = %d, %v; per-word form says %d", what, got, err, want)
	}
	if got, err := v.VerifySubsetBytes(st, missing, toBytes(c), toBytes(tags), wraps); err != nil || got != want {
		t.Errorf("%s: VerifySubsetBytes = %d, %v; per-word form says %d", what, got, err, want)
	}
	if len(missing) == 0 {
		if got := v.Verify(st, c, tags, wraps); got != want {
			t.Errorf("%s: Verify = %d; per-word form says %d", what, got, want)
		}
	}
}

// TestVerifyMatchesPerWord: honest lanes verify and a flipped word at
// element 0, 7, 8 or n−1 of either lane fails at the oracle's index —
// complete aggregates and degraded ones (one rank missing, a run reaching
// rank P−1, two separate runs).
func TestVerifyMatchesPerWord(t *testing.T) {
	v, err := New(ring.MersennePrime61, 0xBEEF)
	if err != nil {
		t.Fatal(err)
	}
	const p = 7
	missingSets := [][]int{nil, {2}, {5, 6}, {1, 2, 4}, {0, 3, 6}}
	for _, backend := range matrixBackends {
		states := genShared(t, p, backend)
		for _, missing := range missingSets {
			for _, n := range []int{1, 8, 9, 65, 1000} {
				cT, sigmaT, opener, survivors := aggregate(v, states, missing, n)
				what := fmt.Sprintf("%s missing=%v n=%d", backend, missing, n)
				checkVerdict(t, v, opener, missing, cT, sigmaT, survivors, what)
				if bad, _ := v.VerifySubset(opener, missing, cT, sigmaT, survivors); bad != -1 {
					t.Errorf("%s: honest lanes rejected at %d", what, bad)
				}
				for _, at := range []int{0, 7, 8, n - 1} {
					if at >= n {
						continue
					}
					for _, lane := range [][]uint64{cT, sigmaT} {
						lane[at] ^= 1 << 17
						checkVerdict(t, v, opener, missing, cT, sigmaT, survivors, fmt.Sprintf("%s flip@%d", what, at))
						if bad, _ := v.VerifySubset(opener, missing, cT, sigmaT, survivors); bad != at {
							t.Errorf("%s: flip at %d reported at %d", what, at, bad)
						}
						lane[at] ^= 1 << 17
					}
				}
				// Too few wraps, no wraps, a negative bound: same verdicts.
				for _, wraps := range []int{survivors / 2, 0, -1} {
					checkVerdict(t, v, opener, missing, cT, sigmaT, wraps, fmt.Sprintf("%s wraps=%d", what, wraps))
				}
			}
		}
	}
}

// TestVerifyHostileLanes: tag words come off the wire as arbitrary 64-bit
// values. Adding k·p to a reduced tag (still < 2^64) leaves its residue —
// and so the verdict — unchanged; the kernels must reduce before they
// multiply rather than trust the lane.
func TestVerifyHostileLanes(t *testing.T) {
	v, err := New(ring.MersennePrime61, 0xFACADE)
	if err != nil {
		t.Fatal(err)
	}
	const p, n = 4, 100
	states := genShared(t, p, prf.BackendChaCha20)
	cT, sigmaT, opener, _ := aggregate(v, states, nil, n)
	rng := rand.New(rand.NewSource(61))
	for j := range sigmaT { // reduced, so k ≤ 7 cannot overflow: 8p < 2^64
		sigmaT[j] += uint64(rng.Intn(8)) * ring.MersennePrime61
	}
	sigmaT[0] = sigmaT[0]%ring.MersennePrime61 + 7*ring.MersennePrime61
	checkVerdict(t, v, opener, nil, cT, sigmaT, p, "k·p added")
	if bad := v.Verify(opener, cT, sigmaT, p); bad != -1 {
		t.Fatalf("unreduced but honest tag lane rejected at %d", bad)
	}
	for _, at := range []int{0, 42, n - 1} {
		sigmaT[at]++
		checkVerdict(t, v, opener, nil, cT, sigmaT, p, fmt.Sprintf("k·p added, tag %d off by one", at))
		if bad := v.Verify(opener, cT, sigmaT, p); bad != at {
			t.Errorf("tampered unreduced tag %d reported at %d", at, bad)
		}
		sigmaT[at]--
	}
	// The extreme words.
	for _, x := range []uint64{ring.MersennePrime61, 1 << 61, 2 * ring.MersennePrime61, 1 << 63, 1<<64 - 1} {
		saveC, saveT := cT[3], sigmaT[3]
		sigmaT[3] = x
		checkVerdict(t, v, opener, nil, cT, sigmaT, p, fmt.Sprintf("tag word %#x", x))
		sigmaT[3], cT[3] = saveT, x
		checkVerdict(t, v, opener, nil, cT, sigmaT, p, fmt.Sprintf("data word %#x", x))
		cT[3] = saveC
	}
}

// TestVerifyLaneLengths: an element without a tag fails; byte lanes must be
// one whole-word length.
func TestVerifyLaneLengths(t *testing.T) {
	v, _ := New(ring.MersennePrime61, 77)
	states := genShared(t, 3, prf.BackendChaCha20)
	cT, sigmaT, opener, _ := aggregate(v, states, nil, 20)
	if bad := v.Verify(opener, cT, sigmaT[:12], 3); bad != 12 {
		t.Errorf("short tag lane: first failure at %d, want 12 (the first untagged element)", bad)
	}
	cT[5]++
	if bad := v.Verify(opener, cT, sigmaT[:12], 3); bad != 5 {
		t.Errorf("short tag lane with a tampered prefix: first failure at %d, want 5", bad)
	}
	cT[5]--
	if bad := v.Verify(opener, cT[:12], sigmaT, 3); bad != -1 {
		t.Errorf("surplus tags rejected at %d", bad)
	}
	c, tg := toBytes(cT), toBytes(sigmaT)
	for _, tc := range []struct{ c, t []byte }{{c[:159], tg[:159]}, {c, tg[:152]}, {c[:152], tg}} {
		if _, err := v.VerifySubsetBytes(opener, nil, tc.c, tc.t, 3); err == nil {
			t.Errorf("byte lanes of %d B and %d B accepted", len(tc.c), len(tc.t))
		}
	}
	if err := v.TagBytes(opener, c[:9], tg); err == nil {
		t.Error("TagBytes accepted a ragged ciphertext lane")
	}
	if err := v.TagBytes(opener, c, tg[:8]); err == nil {
		t.Error("TagBytes accepted a short tag buffer")
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

// TestTagVerifyAllocs pins the streaming forms at zero allocations per call
// on a software backend. AES-fast pays what its BlockSource pays per stream
// (one CTR object per Init, inherent to internal/prf) and nothing else.
func TestTagVerifyAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("race-mode sync.Pool drops items; the gate runs race-free")
	}
	v, _ := New(ring.MersennePrime61, 99)
	const p, n = 6, 4096
	missing := []int{1, 3, 4}
	for _, backend := range []string{prf.BackendChaCha20, prf.BackendAESFast} {
		states := genShared(t, p, backend)
		cT, sigmaT, opener, survivors := aggregate(v, states, nil, n)
		cB, tB := toBytes(cT), toBytes(sigmaT)
		tags, tagsB := make([]uint64, n), make([]byte, 8*n)
		mT, mSigma, _, mSurvivors := aggregate(v, states, missing, n)

		// What one key stream costs on this backend, by itself.
		var bs prf.BlockSource
		perStream := testing.AllocsPerRun(20, func() { bs.Init(opener.Enc, 1, 0, 8*n) })
		if backend == prf.BackendChaCha20 && perStream != 0 {
			t.Fatalf("chacha20 BlockSource allocates %.1f/Init; the test's baseline moved", perStream)
		}
		// ... and one run-boundary nonce derivation (a PRF.Uint64 call).
		perNonce := testing.AllocsPerRun(20, func() { states[0].RankNonce(1) })
		st := states[1] // not last: two key streams per Tag
		for _, tc := range []struct {
			name    string
			streams float64
			extra   float64 // VerifySubset: a sorted copy of the missing set, four boundary nonces
			f       func()
		}{
			{"Tag", 2, 0, func() { v.Tag(st, cT, tags) }},
			{"TagBytes", 2, 0, func() { v.TagBytes(st, cB, tagsB) }},
			{"Verify", 1, 0, func() {
				if v.Verify(opener, cT, sigmaT, survivors) != -1 {
					t.Fatal("verify failed")
				}
			}},
			{"VerifySubsetBytes", 1, 0, func() {
				if bad, err := v.VerifySubsetBytes(opener, nil, cB, tB, survivors); bad != -1 || err != nil {
					t.Fatal("verify failed")
				}
			}},
			{"VerifySubset/runs", 1 + 4, 1 + 4*perNonce, func() { // root, −s_1 + s_2, −s_3 + s_5
				if bad, err := v.VerifySubset(states[0], missing, mT, mSigma, mSurvivors); bad != -1 || err != nil {
					t.Fatal("subset verify failed")
				}
			}},
		} {
			tc.f() // warm the pool (and grow its term slice)
			if a := testing.AllocsPerRun(20, tc.f); a > tc.streams*perStream+tc.extra {
				t.Errorf("%s/%s: %.1f allocs/op, want ≤ %.0f streams × %.1f + %.0f", backend, tc.name, a, tc.streams, perStream, tc.extra)
			}
		}
	}
}

func benchLanes(b *testing.B, n int) (*Vector, []*keys.RankState, []byte, []byte) {
	v, _ := New(ring.MersennePrime61, 12345)
	states := genShared(b, 4, prf.BackendAESFast)
	cT, sigmaT, _, _ := aggregate(v, states, nil, n)
	return v, states, toBytes(cT), toBytes(sigmaT)
}

func BenchmarkTagBytes1M(b *testing.B) {
	const n = 131072
	v, states, c, _ := benchLanes(b, n)
	tags := make([]byte, 8*n)
	b.SetBytes(8 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.TagBytes(states[1], c, tags); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyBytes1M(b *testing.B) {
	const n = 131072
	v, states, c, tags := benchLanes(b, n)
	b.SetBytes(8 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bad, err := v.VerifySubsetBytes(states[0], nil, c, tags, 4); bad != -1 || err != nil {
			b.Fatalf("verification failed at %d: %v", bad, err)
		}
	}
}
