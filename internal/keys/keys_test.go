package keys

import (
	"bytes"
	"errors"
	"io"
	"testing"
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

func TestGenerateRejectsBadSize(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := Generate(n, Config{}); err == nil {
			t.Errorf("size %d accepted", n)
		}
	}
}

func TestGenerateKeyTopology(t *testing.T) {
	const P = 7
	states, err := Generate(P, Config{Rand: &seqReader{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != P {
		t.Fatalf("got %d states", len(states))
	}
	for i, s := range states {
		if s.Rank != i || s.Size != P {
			t.Errorf("rank %d: identity fields %d/%d", i, s.Rank, s.Size)
		}
		if s.NextKey != states[(i+1)%P].SelfKey {
			t.Errorf("rank %d: NextKey is not rank %d's SelfKey", i, (i+1)%P)
		}
		if s.RootKey != states[0].SelfKey {
			t.Errorf("rank %d: RootKey is not rank 0's SelfKey", i)
		}
		if s.Collective() != states[0].Collective() {
			t.Errorf("rank %d: collective key differs from rank 0", i)
		}
	}
	if states[P-1].IsLast() != true || states[0].IsLast() != false {
		t.Error("IsLast wrong")
	}
}

func TestStartingKeysAreDistinct(t *testing.T) {
	states, err := Generate(16, Config{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, s := range states {
		if seen[s.SelfKey] {
			t.Fatal("duplicate starting key (p ~ 2^-60, so this is a bug)")
		}
		seen[s.SelfKey] = true
	}
}

func TestAdvanceKeepsRanksInLockstep(t *testing.T) {
	states, err := Generate(5, Config{Rand: &seqReader{}})
	if err != nil {
		t.Fatal(err)
	}
	before := states[0].Collective()
	for _, s := range states {
		s.Advance()
	}
	after := states[0].Collective()
	if after == before {
		t.Error("Advance did not change k_c")
	}
	for _, s := range states {
		if s.Collective() != after {
			t.Error("ranks diverged after Advance")
		}
	}
	// Nonces telescope consistently after progression.
	for i, s := range states {
		if s.NextNonce() != states[(i+1)%5].SelfNonce() {
			t.Errorf("rank %d: NextNonce != successor's SelfNonce", i)
		}
		if s.RootNonce() != states[0].SelfNonce() {
			t.Errorf("rank %d: RootNonce != rank 0's SelfNonce", i)
		}
	}
}

func TestAdvanceIsNonRepeatingShortTerm(t *testing.T) {
	states, err := Generate(1, Config{Rand: &seqReader{}})
	if err != nil {
		t.Fatal(err)
	}
	s := states[0]
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		if seen[s.Collective()] {
			t.Fatalf("k_c repeated after %d advances", i)
		}
		seen[s.Collective()] = true
		s.Advance()
	}
}

func TestDeterministicRandGivesReproducibleKeys(t *testing.T) {
	a, err := Generate(3, Config{Rand: &seqReader{}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(3, Config{Rand: &seqReader{}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].SelfKey != b[i].SelfKey || a[i].Collective() != b[i].Collective() {
			t.Fatal("same entropy produced different keys")
		}
	}
}

func TestEncPRFSharedAcrossRanks(t *testing.T) {
	states, err := Generate(4, Config{Rand: &seqReader{}})
	if err != nil {
		t.Fatal(err)
	}
	// All ranks hold the same k_e: keystreams must agree.
	a := make([]byte, 64)
	b := make([]byte, 64)
	states[0].Enc.Keystream(a, 1, 0)
	states[3].Enc.Keystream(b, 1, 0)
	if !bytes.Equal(a, b) {
		t.Error("F_{k_e} differs between ranks")
	}
}

type failReader struct{}

func (failReader) Read([]byte) (int, error) { return 0, errors.New("no entropy") }

func TestGenerateSurfacesEntropyFailure(t *testing.T) {
	if _, err := Generate(2, Config{Rand: failReader{}}); err == nil {
		t.Error("entropy failure not surfaced")
	}
}

type shortReader struct{ n int }

func (r *shortReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	k := r.n
	if k > len(p) {
		k = len(p)
	}
	r.n -= k
	return k, nil
}

func TestGenerateSurfacesShortEntropy(t *testing.T) {
	if _, err := Generate(4, Config{Rand: &shortReader{n: 10}}); err == nil {
		t.Error("short entropy not surfaced")
	}
}
