// Package keys implements HEAR's key generation and per-rank key state
// (§5, "Key Generation"). Initialization is per communicator: every rank i
// draws a secret starting key k_s_i and shares it only with the ranks that
// need it for the telescoping noise (its ring predecessor) — plus rank 0's
// key, which every rank needs to decrypt. Rank 0 additionally draws the
// collective key k_c, the encryption key k_e (the PRF key), and the
// progression key k_p, and broadcasts them inside the secure environment.
//
// After initialization every rank holds exactly six keys — Θ(1) space
// regardless of communicator size — and before each Allreduce the whole
// communicator advances k_c ← F_{k_p}(k_c), which is what provides
// temporal safety.
package keys

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"

	"hear/internal/prf"
)

// KeyBytes is the PRF key length for k_e and k_p (AES-128).
const KeyBytes = 16

// rankKeyDomain separates the shared-group starting-key derivation
// k_s_i = G_{k_g}(rankKeyDomain, i) from every other use of a PRF in the
// system. The group PRF G is keyed with its own k_g (independent of k_e
// and k_p), so the constant is belt-and-braces rather than load-bearing.
const rankKeyDomain uint64 = 0xA24BAED4963EE407

// RankState is the key material one rank is permitted to hold. It contains
// rank i's own starting key, the successor's key (consumed by the canceling
// noise term of eqs. 1–3 and 6), rank 0's key (consumed by decryption), and
// the three collective secrets.
type RankState struct {
	Rank int
	Size int

	SelfKey uint64 // k_s_i
	NextKey uint64 // k_s_{(i+1) mod P}
	RootKey uint64 // k_s_0

	collective uint64  // k_c, progressed before every Allreduce
	epoch      uint64  // number of Advance calls applied to k_c
	Enc        prf.PRF // F keyed with k_e
	prog       prf.PRF // F keyed with k_p

	// group is the shared-group key-derivation PRF G_{k_g}; non-nil only
	// under Config.SharedGroup, where every starting key is
	// k_s_i = G_{k_g}(rankKeyDomain, i) and any rank can therefore re-derive
	// any other rank's noise stream (the property degraded rounds need).
	group prf.PRF
}

// Config controls key generation.
type Config struct {
	// Backend selects the PRF backend for k_e and k_p (default AES-CTR fast).
	Backend string
	// Rand is the entropy source; nil means crypto/rand.Reader. Tests may
	// inject a deterministic reader.
	Rand io.Reader
	// SharedGroup switches starting-key generation from independent random
	// draws to PRF derivation under a single group key k_g:
	// k_s_i = G_{k_g}(i). Every rank then holds k_g and can reconstruct the
	// noise stream of any other rank — which is exactly what lets a
	// degraded (dropout-tolerant) round fold the missing ranks' noise back
	// in and still decrypt. The trade-off is deliberate and documented:
	// under the default policy a rank learns only its ring neighbours'
	// keys; under SharedGroup the whole group shares one derivation secret,
	// as in the shared-key secure-aggregation schemes. The gateway remains
	// key-blind either way.
	SharedGroup bool
}

func (c *Config) fill() {
	if c.Backend == "" {
		c.Backend = prf.BackendAESFast
	}
	if c.Rand == nil {
		c.Rand = rand.Reader
	}
}

// Generate runs the initialization phase for a communicator of size P and
// returns one RankState per rank. In a deployment each state would exist
// only inside that rank's secure environment; the slice models the result
// of the secure exchange. The states deliberately contain *only* the keys
// §5 grants each rank: k_s_i, k_s_{i+1}, k_s_0, k_c, k_e, k_p.
func Generate(size int, cfg Config) ([]*RankState, error) {
	if size < 1 {
		return nil, fmt.Errorf("keys: communicator size %d < 1", size)
	}
	cfg.fill()

	starting := make([]uint64, size)
	var group prf.PRF
	if cfg.SharedGroup {
		kg := make([]byte, KeyBytes)
		if _, err := io.ReadFull(cfg.Rand, kg); err != nil {
			return nil, fmt.Errorf("keys: drawing k_g: %w", err)
		}
		g, err := prf.New(cfg.Backend, kg)
		if err != nil {
			return nil, fmt.Errorf("keys: constructing G_{k_g}: %w", err)
		}
		group = g
		for i := range starting {
			starting[i] = g.Uint64(rankKeyDomain, uint64(i))
		}
	} else {
		for i := range starting {
			v, err := randUint64(cfg.Rand)
			if err != nil {
				return nil, err
			}
			starting[i] = v
		}
	}
	kc, err := randUint64(cfg.Rand)
	if err != nil {
		return nil, err
	}
	ke := make([]byte, KeyBytes)
	if _, err := io.ReadFull(cfg.Rand, ke); err != nil {
		return nil, fmt.Errorf("keys: drawing k_e: %w", err)
	}
	kp := make([]byte, KeyBytes)
	if _, err := io.ReadFull(cfg.Rand, kp); err != nil {
		return nil, fmt.Errorf("keys: drawing k_p: %w", err)
	}

	states := make([]*RankState, size)
	for i := 0; i < size; i++ {
		enc, err := prf.New(cfg.Backend, ke)
		if err != nil {
			return nil, fmt.Errorf("keys: constructing F_{k_e}: %w", err)
		}
		prog, err := prf.New(cfg.Backend, kp)
		if err != nil {
			return nil, fmt.Errorf("keys: constructing F_{k_p}: %w", err)
		}
		states[i] = &RankState{
			Rank:       i,
			Size:       size,
			SelfKey:    starting[i],
			NextKey:    starting[(i+1)%size],
			RootKey:    starting[0],
			collective: kc,
			Enc:        enc,
			prog:       prog,
			group:      group,
		}
	}
	return states, nil
}

// CanDeriveRankKeys reports whether this state was generated under the
// shared-group policy and can therefore reconstruct any rank's starting
// key — the precondition for subset-noise cancellation in degraded rounds.
func (s *RankState) CanDeriveRankKeys() bool { return s.group != nil }

// RankKey returns rank r's starting key k_s_r, derivable only under the
// shared-group policy.
func (s *RankState) RankKey(rank int) (uint64, error) {
	if s.group == nil {
		return 0, fmt.Errorf("keys: rank keys not derivable (independent starting keys; generate with Config.SharedGroup)")
	}
	if rank < 0 || rank >= s.Size {
		return 0, fmt.Errorf("keys: rank %d out of range [0,%d)", rank, s.Size)
	}
	return s.group.Uint64(rankKeyDomain, uint64(rank)), nil
}

// RankNonce returns rank r's stream identifier k_s_r + k_c at the current
// epoch — the nonce of the noise stream rank r would have used this
// collective. Degraded rounds use it to fold a missing rank's telescoping
// noise back into a partial aggregate.
func (s *RankState) RankNonce(rank int) (uint64, error) {
	k, err := s.RankKey(rank)
	if err != nil {
		return 0, err
	}
	return k + s.collective, nil
}

// Advance progresses the collective key, k_c ← F_{k_p}(k_c). Every rank
// calls it once at the start of each Allreduce; because k_p and the initial
// k_c are shared, all ranks stay in lockstep without communication.
func (s *RankState) Advance() {
	s.collective = s.prog.Uint64(s.collective, 0)
	s.epoch++
}

// Epoch counts the Advance calls applied so far. Because every rank starts
// from the same k_c and k_p, two states agree on k_c exactly when they
// agree on the epoch — which makes the counter a safe-to-share coherence
// token: recovery protocols exchange epochs (never keys) to detect and heal
// a rank that fell behind the group's key schedule.
func (s *RankState) Epoch() uint64 { return s.epoch }

// Collective returns the current k_c.
func (s *RankState) Collective() uint64 { return s.collective }

// SelfNonce is the stream identifier k_s_i + k_c for this rank's noise.
func (s *RankState) SelfNonce() uint64 { return s.SelfKey + s.collective }

// NextNonce is k_s_{i+1} + k_c, the canceling stream.
func (s *RankState) NextNonce() uint64 { return s.NextKey + s.collective }

// RootNonce is k_s_0 + k_c, the stream that survives the telescoping sum
// and is subtracted (divided, XORed) out at decryption.
func (s *RankState) RootNonce() uint64 { return s.RootKey + s.collective }

// CollectiveNonce is k_c itself, used by the float v1 addition scheme whose
// noise (eq. 7) depends only on the collective key — the documented reason
// that scheme lacks global safety.
func (s *RankState) CollectiveNonce() uint64 { return s.collective }

// IsLast reports whether this rank is P−1, the rank whose noise term is
// not canceled (eqs. 1–3) or that carries the plain noise factor (eq. 6).
func (s *RankState) IsLast() bool { return s.Rank == s.Size-1 }

// NewManual constructs a RankState from explicit key material. It exists
// for tests and for reproducing the paper's Table 3 worked examples with
// chosen noise; production code uses Generate. prog may be nil when the
// caller never calls Advance.
func NewManual(rank, size int, self, next, root, kc uint64, enc, prog prf.PRF) *RankState {
	return &RankState{
		Rank:       rank,
		Size:       size,
		SelfKey:    self,
		NextKey:    next,
		RootKey:    root,
		collective: kc,
		Enc:        enc,
		prog:       prog,
	}
}

func randUint64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("keys: drawing key: %w", err)
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}
