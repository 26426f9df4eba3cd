package homac

import (
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"hear/internal/keys"
	"hear/internal/prf"
	"hear/internal/ring"
)

type seqReader struct{ next byte }

func (r *seqReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = r.next*73 + 11
		r.next++
	}
	return len(p), nil
}

func genStates(t testing.TB, p int) []*keys.RankState {
	t.Helper()
	states, err := keys.Generate(p, keys.Config{Rand: &seqReader{next: 3}})
	if err != nil {
		t.Fatal(err)
	}
	return states
}

// fullRun tags random ciphertext vectors on every rank, aggregates both
// lanes like the network would, and returns the reduced lanes plus states.
func fullRun(t *testing.T, v *Vector, p, n int, tamper func(c []uint64, tags []uint64)) (int, []*keys.RankState) {
	t.Helper()
	states := genStates(t, p)
	rng := rand.New(rand.NewSource(int64(p*1000 + n)))
	var cT []uint64
	var sigmaT []uint64
	for i := 0; i < p; i++ {
		states[i].Advance()
		cipher := make([]uint64, n)
		for j := range cipher {
			cipher[j] = rng.Uint64()
		}
		tags := make([]uint64, n)
		if err := v.Tag(states[i], cipher, tags); err != nil {
			t.Fatal(err)
		}
		if cT == nil {
			cT = append([]uint64(nil), cipher...)
			sigmaT = append([]uint64(nil), tags...)
		} else {
			for j := range cT {
				cT[j] += cipher[j] // data lane wraps mod 2^64
			}
			v.Aggregate(sigmaT, tags)
		}
	}
	if tamper != nil {
		tamper(cT, sigmaT)
	}
	return v.Verify(states[0], cT, sigmaT, p), states
}

// The per-word forms below are what Tag/Verify/VerifySubset were before the
// block kernels: one PRF.Uint64 call per key, general-prime ring.Fp
// arithmetic (a hardware divide per Reduce and Mul) and a linear wrap
// search. They are the bit-identity oracle — shipped code must produce the
// same tags byte for byte and the same verdict and failing index.

var fp = ring.NewFp(ring.MersennePrime61)

// keyAt derives the per-ciphertext homomorphic key s[j] for stream nonce.
func keyAt(p prf.PRF, nonce uint64, j int) uint64 {
	return fp.Reduce(p.Uint64(nonce+macDomain, uint64(j)))
}

func tagWord(v *Vector, st *keys.RankState, cipher, tags []uint64) {
	self, next := st.SelfNonce(), st.NextNonce()
	for j, c := range cipher {
		s := keyAt(st.Enc, self, j)
		if !st.IsLast() {
			s = fp.Sub(s, keyAt(st.Enc, next, j))
		}
		tags[j] = fp.Mul(fp.Sub(s, fp.Reduce(c)), v.zInv)
	}
}

// wrapSearchWord reports whether rhs + k·2^64 ≡ want for some k ∈ [0, wraps].
func wrapSearchWord(rhs, want uint64, wraps int) bool {
	pow64 := fp.Reduce(1 << 63)
	pow64 = fp.Add(pow64, pow64) // 2^64 mod p
	for k := 0; k <= wraps; k++ {
		if rhs == want {
			return true
		}
		rhs = fp.Add(rhs, pow64)
	}
	return false
}

func verifySubsetWord(v *Vector, st *keys.RankState, missing []int, reducedCipher, tags []uint64, wraps int) (int, error) {
	type run struct {
		pos, neg uint64
		hasNeg   bool
	}
	m := append([]int(nil), missing...)
	sort.Ints(m)
	var runs []run
	for i := 0; i < len(m); {
		a := m[i]
		b := a
		for i++; i < len(m) && m[i] == b+1; i++ {
			b = m[i]
		}
		pos, err := st.RankNonce(a)
		if err != nil {
			return 0, err
		}
		r := run{pos: pos}
		if b < st.Size-1 {
			if r.neg, err = st.RankNonce(b + 1); err != nil {
				return 0, err
			}
			r.hasNeg = true
		}
		runs = append(runs, r)
	}
	root := st.RootNonce()
	for j := range reducedCipher {
		want := keyAt(st.Enc, root, j)
		for _, r := range runs {
			want = fp.Sub(want, keyAt(st.Enc, r.pos, j))
			if r.hasNeg {
				want = fp.Add(want, keyAt(st.Enc, r.neg, j))
			}
		}
		rhs := fp.Add(fp.Reduce(reducedCipher[j]), fp.Mul(tags[j], v.z))
		if !wrapSearchWord(rhs, want, wraps) {
			return j, nil
		}
	}
	return -1, nil
}

func verifyWord(v *Vector, st *keys.RankState, reducedCipher, tags []uint64, wraps int) int {
	bad, _ := verifySubsetWord(v, st, nil, reducedCipher, tags, wraps)
	return bad
}

func TestNewValidation(t *testing.T) {
	if _, err := New(4, 1); err == nil {
		t.Error("even modulus accepted")
	}
	// The tag folds are hard-wired to 2^61−1: any other prime, however
	// good, yields tags that cannot round-trip and must be refused.
	for _, p := range []uint64{3, 65537, 1<<31 - 1, 1<<61 - 3, 1<<61 + 1, 1<<64 - 59} {
		if _, err := New(p, 5); err == nil {
			t.Errorf("modulus %d accepted", p)
		}
	}
	if v, err := New(ring.MersennePrime61, 1<<63+12345); err != nil || v.z != fp.Reduce(1<<63+12345) || fp.Mul(v.z, v.zInv) != 1 {
		t.Errorf("wide Z: v=%+v err=%v", v, err)
	}
	if _, err := New(ring.MersennePrime61, 0); err == nil {
		t.Error("zero Z accepted")
	}
	if _, err := New(ring.MersennePrime61, ring.MersennePrime61); err == nil {
		t.Error("Z ≡ 0 mod p accepted")
	}
}

func TestVerifyAcceptsHonestAggregation(t *testing.T) {
	v, err := New(ring.MersennePrime61, 0xDEADBEEF12345)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 8, 16} {
		if idx, _ := fullRun(t, v, p, 64, nil); idx != -1 {
			t.Errorf("P=%d: honest aggregation rejected at element %d", p, idx)
		}
	}
}

func TestVerifyDetectsDataTampering(t *testing.T) {
	v, err := New(ring.MersennePrime61, 7777777)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := fullRun(t, v, 4, 32, func(c []uint64, tags []uint64) {
		c[17] += 5 // the malicious switch flips the data lane
	})
	if idx != 17 {
		t.Errorf("tampered element not detected: got index %d, want 17", idx)
	}
}

func TestVerifyDetectsTagTampering(t *testing.T) {
	v, err := New(ring.MersennePrime61, 31337)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := fullRun(t, v, 4, 32, func(c []uint64, tags []uint64) {
		tags[3] = tags[3] + 1
	})
	if idx != 3 {
		t.Errorf("tampered tag not detected: got index %d, want 3", idx)
	}
}

func TestVerifyDetectsDroppedContribution(t *testing.T) {
	// A switch that drops one rank's pair entirely must be caught.
	v, err := New(ring.MersennePrime61, 999331)
	if err != nil {
		t.Fatal(err)
	}
	const p, n = 3, 8
	states := genStates(t, p)
	var cT, sigmaT []uint64
	for i := 0; i < p; i++ {
		states[i].Advance()
		cipher := make([]uint64, n)
		for j := range cipher {
			cipher[j] = uint64(i*100 + j)
		}
		tags := make([]uint64, n)
		if err := v.Tag(states[i], cipher, tags); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			continue // dropped by the network
		}
		if cT == nil {
			cT = append([]uint64(nil), cipher...)
			sigmaT = append([]uint64(nil), tags...)
		} else {
			for j := range cT {
				cT[j] += cipher[j]
			}
			v.Aggregate(sigmaT, tags)
		}
	}
	if idx := v.Verify(states[0], cT, sigmaT, p); idx == -1 {
		t.Error("dropped contribution went undetected")
	}
}

// tagNaive produces the non-canceling tags of §5.5's first equation,
// σ = (s_i − c_i)/Z mod p. Each rank's key survives into the aggregate, so
// verification must reconstruct Σ_i s_i[j] — Θ(P) per element, the same
// trade-off the naive encryption scheme has. Test-only: the reference form
// for the ablation pairing the paper's "can be improved by using a
// canceling method" remark.
func tagNaive(v *Vector, st *keys.RankState, cipher []uint64, tags []uint64) error {
	if len(tags) < len(cipher) {
		return fmt.Errorf("homac: tag buffer %d < %d elements", len(tags), len(cipher))
	}
	self := st.SelfNonce()
	for j, c := range cipher {
		s := keyAt(st.Enc, self, j)
		tags[j] = fp.Mul(fp.Sub(s, fp.Reduce(c)), v.zInv)
	}
	return nil
}

// verifyNaive checks pairs tagged with tagNaive. allStartingKeys must hold
// every rank's starting key (the Θ(P) key knowledge the canceling form
// avoids); wraps bounds the data-lane 2^64 wraps as in Verify.
func verifyNaive(v *Vector, st *keys.RankState, allStartingKeys []uint64, reducedCipher, tags []uint64, wraps int) int {
	for j := range reducedCipher {
		var sSum uint64
		for _, k := range allStartingKeys {
			sSum = fp.Add(sSum, keyAt(st.Enc, k+st.Collective(), j))
		}
		rhs := fp.Add(fp.Reduce(reducedCipher[j]), fp.Mul(tags[j], v.z))
		if !wrapSearchWord(rhs, sSum, wraps) {
			return j
		}
	}
	return -1
}

func TestNaiveTagVerifyRoundTrip(t *testing.T) {
	v, err := New(ring.MersennePrime61, 0xFEED5)
	if err != nil {
		t.Fatal(err)
	}
	const p, n = 4, 16
	states := genStates(t, p)
	starting := make([]uint64, p)
	for i, s := range states {
		starting[i] = s.SelfKey
	}
	var cT, sigmaT []uint64
	for i := 0; i < p; i++ {
		states[i].Advance()
		cipher := make([]uint64, n)
		for j := range cipher {
			cipher[j] = uint64(i*1000 + j)
		}
		tags := make([]uint64, n)
		if err := tagNaive(v, states[i], cipher, tags); err != nil {
			t.Fatal(err)
		}
		if cT == nil {
			cT = append([]uint64(nil), cipher...)
			sigmaT = append([]uint64(nil), tags...)
		} else {
			for j := range cT {
				cT[j] += cipher[j]
			}
			v.Aggregate(sigmaT, tags)
		}
	}
	if idx := verifyNaive(v, states[0], starting, cT, sigmaT, p); idx != -1 {
		t.Errorf("honest naive aggregation rejected at %d", idx)
	}
	cT[3]++
	if idx := verifyNaive(v, states[0], starting, cT, sigmaT, p); idx != 3 {
		t.Errorf("naive tamper detection: got %d, want 3", idx)
	}
}

func TestNaiveTagBufferTooSmall(t *testing.T) {
	v, _ := New(ring.MersennePrime61, 5)
	states := genStates(t, 2)
	if err := tagNaive(v, states[0], make([]uint64, 4), make([]uint64, 2)); err == nil {
		t.Error("short tag buffer accepted")
	}
}

func TestTagBufferTooSmall(t *testing.T) {
	v, _ := New(ring.MersennePrime61, 5)
	states := genStates(t, 2)
	if err := v.Tag(states[0], make([]uint64, 4), make([]uint64, 2)); err == nil {
		t.Error("short tag buffer accepted")
	}
}

func TestOverhead(t *testing.T) {
	v, _ := New(ring.MersennePrime61, 5)
	if got := v.Overhead(64); got < 1.9 || got > 2.0 {
		t.Errorf("Overhead(64) = %g, want ~1.95 (61-bit λ)", got)
	}
	if got := v.Overhead(32); got < 2.8 {
		t.Errorf("Overhead(32) = %g, want ~2.9", got)
	}
}

func TestBigHoMACRoundTrip(t *testing.T) {
	b, err := NewBig(128)
	if err != nil {
		t.Fatal(err)
	}
	if b.Lambda() != 128 {
		t.Errorf("λ = %d", b.Lambda())
	}
	const p, n = 3, 16
	states := genStates(t, p)
	var cT []uint64
	var sigmaT []*big.Int
	for i := 0; i < p; i++ {
		states[i].Advance()
		cipher := make([]uint64, n)
		for j := range cipher {
			cipher[j] = uint64(j)*7 + uint64(i)
		}
		tags := make([]*big.Int, n)
		if err := b.Tag(states[i], cipher, tags); err != nil {
			t.Fatal(err)
		}
		if cT == nil {
			cT = append([]uint64(nil), cipher...)
			sigmaT = tags
		} else {
			for j := range cT {
				cT[j] += cipher[j]
			}
			b.Aggregate(sigmaT, tags)
		}
	}
	if idx := b.Verify(states[0], cT, sigmaT, p); idx != -1 {
		t.Errorf("honest aggregation rejected at %d", idx)
	}
	cT[5] ^= 1
	if idx := b.Verify(states[0], cT, sigmaT, p); idx != 5 {
		t.Errorf("tamper detection: got %d, want 5", idx)
	}
}

func TestNewBigValidation(t *testing.T) {
	if _, err := NewBig(4); err == nil {
		t.Error("λ=4 accepted")
	}
	if _, err := NewBig(10000); err == nil {
		t.Error("λ=10000 accepted")
	}
}

func BenchmarkTag64(b *testing.B) {
	v, _ := New(ring.MersennePrime61, 12345)
	states := genStates(b, 2)
	cipher := make([]uint64, 1024)
	tags := make([]uint64, 1024)
	b.SetBytes(1024 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Tag(states[0], cipher, tags); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkVerify pairs naive and canceling verification (§5.5's "can be
// improved" remark): Θ(P) key reconstructions per element against Θ(1).
func benchmarkVerify(b *testing.B, p int, naive bool) {
	v, err := New(ring.MersennePrime61, 424242)
	if err != nil {
		b.Fatal(err)
	}
	const n = 256
	states := genStates(b, p)
	starting := make([]uint64, p)
	for i, st := range states {
		starting[i] = st.SelfKey
	}
	var cT, sigmaT []uint64
	for i := 0; i < p; i++ {
		states[i].Advance()
		cipher := make([]uint64, n)
		tags := make([]uint64, n)
		if naive {
			err = tagNaive(v, states[i], cipher, tags)
		} else {
			err = v.Tag(states[i], cipher, tags)
		}
		if err != nil {
			b.Fatal(err)
		}
		if cT == nil {
			cT = append([]uint64(nil), cipher...)
			sigmaT = append([]uint64(nil), tags...)
		} else {
			for j := range cT {
				cT[j] += cipher[j]
			}
			v.Aggregate(sigmaT, tags)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var bad int
		if naive {
			bad = verifyNaive(v, states[0], starting, cT, sigmaT, p)
		} else {
			bad = v.Verify(states[0], cT, sigmaT, p)
		}
		if bad != -1 {
			b.Fatalf("verification failed at %d", bad)
		}
	}
}

func BenchmarkVerifyCancelingP16(b *testing.B) { benchmarkVerify(b, 16, false) }
func BenchmarkVerifyNaiveP16(b *testing.B)     { benchmarkVerify(b, 16, true) }

func BenchmarkTagBig128(b *testing.B) {
	bg, err := NewBig(128)
	if err != nil {
		b.Fatal(err)
	}
	states := genStates(b, 2)
	cipher := make([]uint64, 256)
	tags := make([]*big.Int, 256)
	b.SetBytes(256 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bg.Tag(states[0], cipher, tags); err != nil {
			b.Fatal(err)
		}
	}
}

// subsetRun tags on every rank under shared-group keys, aggregates only
// the survivors' lanes, and verifies against the survivor subset.
func subsetRun(t *testing.T, v *Vector, p, n int, missing []int, tamper func(c, tags []uint64)) (int, error) {
	t.Helper()
	states, err := keys.Generate(p, keys.Config{Rand: &seqReader{next: 5}, SharedGroup: true})
	if err != nil {
		t.Fatal(err)
	}
	gone := make(map[int]bool)
	for _, m := range missing {
		gone[m] = true
	}
	rng := rand.New(rand.NewSource(int64(p*1000 + n)))
	var cT, sigmaT []uint64
	var opener *keys.RankState
	survivors := 0
	for i := 0; i < p; i++ {
		states[i].Advance()
		cipher := make([]uint64, n)
		for j := range cipher {
			cipher[j] = rng.Uint64()
		}
		tags := make([]uint64, n)
		if err := v.Tag(states[i], cipher, tags); err != nil {
			t.Fatal(err)
		}
		if gone[i] {
			continue // the straggler sealed but its lanes never arrived
		}
		survivors++
		opener = states[i]
		if cT == nil {
			cT = append([]uint64(nil), cipher...)
			sigmaT = append([]uint64(nil), tags...)
		} else {
			for j := range cT {
				cT[j] += cipher[j]
			}
			v.Aggregate(sigmaT, tags)
		}
	}
	if tamper != nil {
		tamper(cT, sigmaT)
	}
	return v.VerifySubset(opener, missing, cT, sigmaT, survivors)
}

// TestVerifySubset: survivor-only aggregates verify against the subset key
// sum, and any tampering is still caught.
func TestVerifySubset(t *testing.T) {
	v, err := New(ring.MersennePrime61, 0xBEEF)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 7} {
		missingSets := [][]int{{0}, {p - 1}}
		if p >= 4 {
			missingSets = append(missingSets, []int{1, 2}, []int{0, 2, p - 1})
		}
		for _, missing := range missingSets {
			if bad, err := subsetRun(t, v, p, 32, missing, nil); err != nil || bad != -1 {
				t.Fatalf("p=%d missing=%v: clean subset failed verify: bad=%d err=%v", p, missing, bad, err)
			}
			bad, err := subsetRun(t, v, p, 32, missing, func(c, tags []uint64) { c[7] ^= 1 << 33 })
			if err != nil || bad != 7 {
				t.Fatalf("p=%d missing=%v: tampered element not caught: bad=%d err=%v", p, missing, bad, err)
			}
		}
	}
}

// TestVerifySubsetPolicy: subset verification without shared-group keys
// must error; duplicates in the missing set must error.
func TestVerifySubsetPolicy(t *testing.T) {
	v, err := New(ring.MersennePrime61, 0xBEEF)
	if err != nil {
		t.Fatal(err)
	}
	states := genStates(t, 4)
	states[0].Advance()
	c := make([]uint64, 4)
	tags := make([]uint64, 4)
	if _, err := v.VerifySubset(states[0], []int{1}, c, tags, 3); err == nil {
		t.Error("VerifySubset succeeded without shared-group keys")
	}
	shared, err := keys.Generate(4, keys.Config{Rand: &seqReader{next: 5}, SharedGroup: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifySubset(shared[0], []int{1, 1}, c, tags, 3); err == nil {
		t.Error("VerifySubset accepted a duplicate missing rank")
	}
}
