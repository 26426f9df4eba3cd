package hear

// §8 "HEAR Extensions": beyond Allreduce, HEAR extends to the other
// collectives ("these would work similarly to Allreduce, however, without
// any INC") and to one-to-one communication "using a matrix of keys rather
// than a constant number of keys", at Θ(N) key space per rank instead of
// the Θ(1) of the Allreduce schemes.
//
// This file implements those extensions:
//
//   - SendEncrypted / RecvEncrypted: point-to-point messages encrypted
//     with a pairwise key from the matrix. A per-message sequence number
//     travels in a small header so out-of-order receivers stay in sync.
//   - BcastEncrypted: the root encrypts with the collective key stream;
//     every rank can decrypt (all ranks hold k_c).
//   - GatherEncrypted / AlltoallEncrypted: per-pair streams keyed by the
//     matrix, so only the two endpoints of each block can read it.
//
// These are transport encryption (no homomorphism needed — nothing is
// reduced), so unlike the Allreduce schemes they have no INC path.

import (
	"encoding/binary"
	"fmt"

	"hear/internal/core"
	"hear/internal/homac"
	"hear/internal/mpi"
)

// Domain separators keep the p2p, broadcast, gather, and alltoall streams
// of one pair disjoint even when sequence numbers coincide.
const (
	domainP2P      uint64 = 0x50325000_00000000
	domainBcast    uint64 = 0x42435354_00000000
	domainGather   uint64 = 0x47415452_00000000
	domainAlltoall uint64 = 0x41324100_00000000
)

// p2pHeaderBytes is the sequence-number header prepended to encrypted
// point-to-point payloads.
const p2pHeaderBytes = 8

// pairNonce returns the symmetric pairwise stream identifier for this
// rank and peer under a domain. The key matrix is symmetric (k_{i,j} =
// k_{j,i}), so both endpoints derive the same stream.
func (c *Context) pairNonce(peer int, domain uint64) (uint64, error) {
	if c.pairKeys == nil {
		return 0, fmt.Errorf("hear: pairwise keys not enabled (set Options.EnableP2P)")
	}
	if peer < 0 || peer >= c.size {
		return 0, fmt.Errorf("hear: peer %d outside communicator of size %d", peer, c.size)
	}
	return c.pairKeys[peer] + domain, nil
}

// xorStream XORs dst in place with the keystream of (nonce, seq): the
// stream offset is seq · 2^32 bytes, giving every message of a pair a
// disjoint 4 GiB span.
func (c *Context) xorStream(dst []byte, nonce, seq uint64) {
	ks := make([]byte, len(dst))
	c.st.Enc.Keystream(ks, nonce, seq<<32)
	for i := range dst {
		dst[i] ^= ks[i]
	}
}

// dirSeq disambiguates the two directions of a symmetric pair stream:
// without it, message seq of i→j and of j→i would reuse one keystream —
// a classic two-time pad. The low bit encodes the direction.
func dirSeq(seq uint64, sender, receiver int) uint64 {
	d := uint64(0)
	if sender > receiver {
		d = 1
	}
	return seq<<1 | d
}

// SendEncrypted sends data to rank `to` under tag, encrypted with the
// pairwise key stream. The wire message carries an 8-byte sequence header
// so receivers tolerate interleaved tags.
func (c *Context) SendEncrypted(comm *mpi.Comm, to, tag int, data []byte) error {
	nonce, err := c.pairNonce(to, domainP2P)
	if err != nil {
		return err
	}
	seq := c.sendSeq[to]
	c.sendSeq[to]++
	msg := make([]byte, p2pHeaderBytes+len(data))
	binary.LittleEndian.PutUint64(msg, seq)
	copy(msg[p2pHeaderBytes:], data)
	c.xorStream(msg[p2pHeaderBytes:], nonce, dirSeq(seq, c.rank, to))
	return comm.Send(to, tag, msg)
}

// RecvEncrypted receives a message from `from` under tag into buf and
// returns the payload length.
func (c *Context) RecvEncrypted(comm *mpi.Comm, from, tag int, buf []byte) (int, error) {
	nonce, err := c.pairNonce(from, domainP2P)
	if err != nil {
		return 0, err
	}
	msg := make([]byte, p2pHeaderBytes+len(buf))
	n, src, err := comm.Recv(from, tag, msg)
	if err != nil {
		return 0, err
	}
	if n < p2pHeaderBytes {
		return 0, fmt.Errorf("hear: encrypted message shorter than its header (%d B)", n)
	}
	if from == mpi.AnySource {
		if nonce, err = c.pairNonce(src, domainP2P); err != nil {
			return 0, err
		}
	}
	seq := binary.LittleEndian.Uint64(msg)
	payload := msg[p2pHeaderBytes:n]
	c.xorStream(payload, nonce, dirSeq(seq, src, c.rank))
	copy(buf, payload)
	return n - p2pHeaderBytes, nil
}

// BcastEncrypted broadcasts buf from root to every rank, encrypted on the
// wire with the collective key stream (all ranks hold k_c, only they can
// read it). Collective: every rank must call it.
func (c *Context) BcastEncrypted(comm *mpi.Comm, root int, buf []byte) error {
	if err := c.checkComm(comm); err != nil {
		return err
	}
	c.st.Advance() // temporal safety for the broadcast stream
	nonce := c.st.CollectiveNonce() + domainBcast
	wire := make([]byte, len(buf))
	copy(wire, buf)
	if comm.Rank() == root {
		c.xorStream(wire, nonce, 0)
	}
	if err := comm.Bcast(root, wire); err != nil {
		return err
	}
	if comm.Rank() != root {
		c.xorStream(wire, nonce, 0)
		copy(buf, wire)
	}
	return nil
}

// GatherEncrypted gathers each rank's block into root's recvBuf; block i
// travels under the (i, root) pairwise stream, so intermediate network
// elements learn nothing and non-root ranks cannot read each other's
// blocks. recvBuf may be nil on non-root ranks.
func (c *Context) GatherEncrypted(comm *mpi.Comm, root int, send []byte, recvBuf []byte) error {
	if err := c.checkComm(comm); err != nil {
		return err
	}
	if c.pairKeys == nil {
		// Fail before any communication: erroring after a collective has
		// started would strand the other members.
		return fmt.Errorf("hear: pairwise keys not enabled (set Options.EnableP2P)")
	}
	c.st.Advance()
	c.gatherSeq++ // all ranks advance in lockstep (collective call order)
	seq := c.gatherSeq
	nb := len(send)
	wire := make([]byte, nb)
	copy(wire, send)
	if comm.Rank() != root {
		nonce, err := c.pairNonce(root, domainGather)
		if err != nil {
			return err
		}
		c.xorStream(wire, nonce, seq)
	}
	if err := comm.Gather(root, wire, recvBuf, nb, mpi.Byte); err != nil {
		return err
	}
	if comm.Rank() == root {
		for i := 0; i < c.size; i++ {
			if i == root {
				continue
			}
			nonce, err := c.pairNonce(i, domainGather)
			if err != nil {
				return err
			}
			c.xorStream(recvBuf[i*nb:(i+1)*nb], nonce, seq)
		}
	}
	return nil
}

// AlltoallEncrypted exchanges per-destination blocks, each encrypted under
// its endpoint pair's stream. send and recv hold size × blockBytes bytes.
func (c *Context) AlltoallEncrypted(comm *mpi.Comm, send, recv []byte, blockBytes int) error {
	if err := c.checkComm(comm); err != nil {
		return err
	}
	if blockBytes <= 0 || len(send) < c.size*blockBytes || len(recv) < c.size*blockBytes {
		return fmt.Errorf("hear: alltoall buffers too small for %d × %d B", c.size, blockBytes)
	}
	if c.pairKeys == nil {
		return fmt.Errorf("hear: pairwise keys not enabled (set Options.EnableP2P)")
	}
	c.st.Advance()
	c.a2aSeq++
	seq := c.a2aSeq
	wire := make([]byte, c.size*blockBytes)
	copy(wire, send)
	for j := 0; j < c.size; j++ {
		if j == c.rank {
			continue
		}
		nonce, err := c.pairNonce(j, domainAlltoall)
		if err != nil {
			return err
		}
		c.xorStream(wire[j*blockBytes:(j+1)*blockBytes], nonce, dirSeq(seq, c.rank, j))
	}
	if err := comm.Alltoall(wire, recv, blockBytes, mpi.Byte); err != nil {
		return err
	}
	for j := 0; j < c.size; j++ {
		if j == c.rank {
			continue
		}
		nonce, err := c.pairNonce(j, domainAlltoall)
		if err != nil {
			return err
		}
		c.xorStream(recv[j*blockBytes:(j+1)*blockBytes], nonce, dirSeq(seq, j, c.rank))
	}
	return nil
}

func (c *Context) checkComm(comm *mpi.Comm) error {
	if comm == nil {
		return fmt.Errorf("hear: nil communicator")
	}
	if comm.Rank() != c.rank || comm.Size() != c.size {
		return fmt.Errorf("hear: context for rank %d/%d used with communicator rank %d/%d",
			c.rank, c.size, comm.Rank(), comm.Size())
	}
	return nil
}

// --- Aggregation-gateway hooks -------------------------------------------
//
// The secure aggregation gateway (internal/aggsvc, cmd/hearagg) moves the
// untrusted aggregator out of process: remote clients seal vectors, a
// key-blind TCP service folds the ciphertext (and HoMAC tag) lanes, and the
// clients verify and open the aggregate. GatewaySealer exposes exactly the
// per-round encrypt/tag/verify/decrypt steps a gateway client needs from a
// Context, without the client ever touching key material directly. It
// implements aggsvc.Sealer structurally so the root package need not import
// the gateway.

// GatewaySealer adapts one rank's Context to the gateway client's
// seal/open cycle under one of the 64-bit integer schemes (SUM by default;
// see NewGatewaySealerScheme for PROD and XOR). A nil verifier disables the
// HoMAC tag lane (Seal returns nil tags and Verify accepts anything), which
// trades integrity for halving the upload.
//
// Every participant of a gateway round must hold a Context from the same
// Init world (sized to the round group) and seal exactly once per round:
// Seal advances the collective key, so the group stays in lockstep the same
// way Allreduce callers do. The gateway protocol enforces the lockstep
// end-to-end: HELLO advertises Epoch, JOIN (sent only once the round's
// membership seals) names the group's agreed seal epoch, and Seal advances
// to exactly that epoch — so a rank that missed a round's JOIN rejoins the
// schedule instead of desynchronizing the whole group.
type GatewaySealer struct {
	ctx      *Context
	kind     SchemeKind
	verifier *homac.Vector
	s        core.Scheme // resolved on first use; see scheme
	sealed   int         // element count of the last Seal: the only lane length Verify and Open accept
}

// scheme resolves the sealer's scheme instance once: Context.Scheme formats
// a cache key per call, which would be the round's only allocation.
func (g *GatewaySealer) scheme() (core.Scheme, error) {
	if g.s == nil {
		s, err := g.ctx.Scheme(g.kind)
		if err != nil {
			return nil, err
		}
		g.s = s
	}
	return g.s, nil
}

// NewGatewaySealer builds the gateway adapter for this context under the
// int64 SUM scheme. verifier may be nil to skip result verification;
// otherwise all participants must share it (same (p, Z), see NewVerifier).
func (c *Context) NewGatewaySealer(verifier *homac.Vector) *GatewaySealer {
	return &GatewaySealer{ctx: c, kind: Int64Sum, verifier: verifier}
}

// NewGatewaySealerScheme builds the gateway adapter under one of the
// gateway-foldable 64-bit integer schemes: Int64Sum, Int64Prod, or
// Int64Xor. The gateway folds each with the matching keyless kernel and
// stays key-blind for all three. HoMAC tags aggregate only linearly, so a
// verifier is accepted with Int64Sum alone; PROD and XOR rounds run
// untagged (the gateway refuses a tagged HELLO for those schemes).
func (c *Context) NewGatewaySealerScheme(kind SchemeKind, verifier *homac.Vector) (*GatewaySealer, error) {
	switch kind {
	case Int64Sum:
	case Int64Prod, Int64Xor:
		if verifier != nil {
			return nil, fmt.Errorf("hear: HoMAC verification is additive; scheme %s cannot carry a tag lane", kind)
		}
	default:
		return nil, fmt.Errorf("hear: scheme %s is not gateway-foldable (want %s, %s, or %s)",
			kind, Int64Sum, Int64Prod, Int64Xor)
	}
	return &GatewaySealer{ctx: c, kind: kind, verifier: verifier}, nil
}

// SchemeID is the wire identifier the gateway client advertises in HELLO,
// so the gateway picks the matching fold kernel. The values mirror
// aggsvc's SchemeInt64* constants structurally (this package must not
// import the gateway); a test pins the mapping.
func (g *GatewaySealer) SchemeID() uint8 {
	switch g.kind {
	case Int64Prod:
		return 2
	case Int64Xor:
		return 3
	default:
		return 1
	}
}

// Tagged reports whether this sealer produces a HoMAC tag lane.
func (g *GatewaySealer) Tagged() bool { return g.verifier != nil }

// Epoch is the context's current key-epoch counter — an opaque coherence
// token (never key material) the gateway client advertises in HELLO.
func (g *GatewaySealer) Epoch() uint64 { return g.ctx.st.Epoch() }

// maxSealEpochLead bounds how far one Seal may advance the key schedule:
// 65,536 missed rounds, ≈ 5 ms of catch-up. The epoch comes off the wire —
// from an untrusted gateway, or from any one participant through the
// max-of-HELLOs rule — and no connection deadline can interrupt the
// catch-up loop, so an unbounded lead would let a hostile peer pin a core.
const maxSealEpochLead = 1 << 16

// Seal advances the collective key to the given epoch (0 means "advance
// exactly once") and encrypts vals under the sealer's scheme, returning
// the ciphertext lane and, when verification is enabled, the HoMAC tag
// lane (both little-endian 64-bit lanes). Sealing at an epoch at or below
// the current one is refused: the key schedule only moves forward, and a
// regression would reuse PRF streams. An epoch more than maxSealEpochLead
// ahead is refused too, before the key moves at all.
func (g *GatewaySealer) Seal(vals []int64, epoch uint64) (cipher, tags []byte, err error) {
	s, err := g.scheme()
	if err != nil {
		return nil, nil, err
	}
	st := g.ctx.st
	switch cur := st.Epoch(); {
	case epoch == 0:
		st.Advance()
	case epoch <= cur:
		return nil, nil, fmt.Errorf("hear: seal epoch %d not ahead of current epoch %d", epoch, cur)
	case epoch-cur > maxSealEpochLead:
		return nil, nil, fmt.Errorf("hear: seal epoch %d is %d ahead of current epoch %d (limit %d)",
			epoch, epoch-cur, cur, maxSealEpochLead)
	default:
		for st.Epoch() < epoch {
			st.Advance()
		}
	}
	cipher, tags, err = g.ctx.sealLanes(s, g.verifier, vals)
	if err != nil {
		return nil, nil, err
	}
	g.sealed = len(vals)
	g.ctx.mx.sealOps.Inc()
	return cipher, tags, nil
}

// checkLane refuses a reduced lane that is not exactly the sealed vector's
// length: a shorter one would verify or open a prefix and leave the rest of
// the caller's result stale, a longer or ragged one is not this round's.
func (g *GatewaySealer) checkLane(what string, lane []byte) error {
	if len(lane) != 8*g.sealed {
		return fmt.Errorf("hear: reduced %s lane is %d B, want %d B (%d sealed elements)", what, len(lane), 8*g.sealed, g.sealed)
	}
	return nil
}

// Verify checks a reduced (ciphertext, tag) lane pair against this rank's
// keys before the aggregate is trusted. With verification disabled it is a
// no-op; with it enabled, missing tags are an error — a gateway must not be
// able to strip verification.
func (g *GatewaySealer) Verify(reducedCipher, reducedTags []byte) error {
	return g.verify(reducedCipher, reducedTags, nil, g.ctx.size)
}

// verify runs verifyLanes and counts a HoMAC mismatch.
func (g *GatewaySealer) verify(reducedCipher, reducedTags []byte, missing []int, wraps int) error {
	if g.verifier == nil {
		return nil
	}
	if err := g.checkLane("ciphertext", reducedCipher); err != nil {
		return err
	}
	err := g.ctx.verifyLanes(g.verifier, reducedCipher, reducedTags, missing, wraps)
	if _, mismatch := err.(*ErrVerificationFailed); mismatch { // returned bare by verifyLanes
		g.ctx.mx.verifyFailures.Inc()
	}
	return err
}

// Open decrypts a reduced ciphertext lane into out. It must pair the most
// recent Seal call (decryption uses the collective key that call advanced
// to), exactly as Allreduce decryption follows its own encryption.
func (g *GatewaySealer) Open(reduced []byte, out []int64) error {
	return g.open(reduced, out, nil)
}

func (g *GatewaySealer) open(reduced []byte, out []int64, missing []int) error {
	s, err := g.scheme()
	if err != nil {
		return err
	}
	if err := g.checkLane("ciphertext", reduced); err != nil {
		return err
	}
	if err := g.ctx.openLanes(s, reduced, out, missing); err != nil {
		return err
	}
	g.ctx.mx.openOps.Inc()
	return nil
}

// The three helpers below are the key side of one verified round — seal,
// verify, open over little-endian 64-bit lanes — shared by GatewaySealer
// and the in-process verified allreduce (verifiedAttempt). They work in the
// context's lane scratch, so a steady-state round allocates nothing.

// laneScratch holds one verified round's three lanes, each grown to its
// high-water mark and kept (like syncBuf, but uncapped: a sealer's rounds
// are all the size the gateway group agreed on). cipher and tags are what
// sealLanes hands out, valid until the next sealLanes; plain is openLanes'
// decrypt target and never leaves it.
type laneScratch struct {
	cipher, tags, plain []byte
}

// growLane returns *buf resized to n bytes, reallocating geometrically on a
// new high-water mark only.
func growLane(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		size := 4 << 10
		for size < n {
			size <<= 1
		}
		*buf = make([]byte, size)
	}
	return (*buf)[:n]
}

// sealLanes encrypts vals under s at the current key epoch — marshalled
// once, into the buffer it is encrypted in — and, with a verifier, tags the
// ciphertext. The lanes are context scratch: valid until the next call.
func (c *Context) sealLanes(s core.Scheme, verifier *homac.Vector, vals []int64) (cipher, tags []byte, err error) {
	n := len(vals)
	cipher = growLane(&c.lanes.cipher, n*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(cipher[i*8:], uint64(v))
	}
	if err := s.Encrypt(c.st, cipher, cipher, n); err != nil {
		return nil, nil, err
	}
	if verifier == nil {
		return cipher, nil, nil
	}
	tags = growLane(&c.lanes.tags, n*8)
	if err := verifier.TagBytes(c.st, cipher, tags); err != nil {
		return nil, nil, err
	}
	return cipher, tags, nil
}

// verifyLanes checks a reduced (ciphertext, tag) lane pair of one length;
// missing lists the ranks absent from a degraded aggregate (nil = complete)
// and wraps bounds the data lane's 2^64 wraps (the contributor count).
func (c *Context) verifyLanes(verifier *homac.Vector, cipher, tags []byte, missing []int, wraps int) error {
	if len(tags) != len(cipher) {
		return fmt.Errorf("hear: reduced tag lane is %d B, ciphertext lane %d B", len(tags), len(cipher))
	}
	bad, err := verifier.VerifySubsetBytes(c.st, missing, cipher, tags, wraps)
	if err != nil {
		return err
	}
	if bad >= 0 {
		return &ErrVerificationFailed{Element: bad}
	}
	return nil
}

// openLanes decrypts a reduced ciphertext lane into out by way of the
// context's plain scratch; reduced itself (the gateway client's read
// buffer) is left as it came. With missing ranks, their noise is first
// folded back into the scratch copy (core.SubsetCanceler), after which the
// scheme's standard decrypt applies in place.
func (c *Context) openLanes(s core.Scheme, reduced []byte, out []int64, missing []int) error {
	n := len(reduced) / 8
	if len(out) < n {
		return fmt.Errorf("hear: out %d < %d elements", len(out), n)
	}
	buf := growLane(&c.lanes.plain, n*8)
	if len(missing) > 0 {
		sc, ok := s.(core.SubsetCanceler)
		if !ok {
			return fmt.Errorf("hear: scheme %s cannot cancel subset noise", s.Name())
		}
		copy(buf, reduced)
		if err := sc.FoldMissingNoise(c.st, buf, n, missing); err != nil {
			return err
		}
		reduced = buf
	}
	if err := s.Decrypt(c.st, reduced, buf, n); err != nil {
		return err
	}
	return getInt64(buf, out[:n])
}

// --- Degraded (dropout-tolerant) rounds ----------------------------------
//
// A gateway running with DegradedRounds completes a round over the
// surviving participant set when stragglers die post-JOIN, and names that
// set in RESULT. The survivors' partial reduce still carries the missing
// ranks' telescoping noise, so the sealer folds it back in
// (core.SubsetCanceler) before the ordinary decrypt — possible exactly when
// the key policy lets one rank re-derive another's noise stream
// (Options.SharedGroupKeys). The methods below implement aggsvc's
// DegradedSealer structurally.

// RankID is this sealer's rank in the key schedule, advertised to the
// gateway so a survivor set can name it.
func (g *GatewaySealer) RankID() int { return g.ctx.rank }

// AcceptsDegraded reports whether this sealer can verify and open a
// survivor-subset aggregate: the key policy must allow deriving other
// ranks' noise streams (Options.SharedGroupKeys) and the scheme must
// support subset cancellation (all three gateway-foldable 64-bit integer
// schemes do). When false, the client negotiates the fail-closed v1
// protocol and a degraded round aborts for it as a retryable straggler cut.
func (g *GatewaySealer) AcceptsDegraded() bool {
	if !g.ctx.st.CanDeriveRankKeys() {
		return false
	}
	s, err := g.scheme()
	if err != nil {
		return false
	}
	_, ok := s.(core.SubsetCanceler)
	return ok
}

// missingFromSurvivors validates a RESULT's survivor set against the
// communicator and returns its complement. The sealer's own rank must be a
// survivor — a gateway claiming we contributed to a round we were cut from
// (or vice versa) is protocol corruption, not a recoverable state.
func (g *GatewaySealer) missingFromSurvivors(survivors []int) ([]int, error) {
	if len(survivors) == 0 || len(survivors) > g.ctx.size {
		return nil, fmt.Errorf("hear: survivor set size %d invalid for communicator of %d", len(survivors), g.ctx.size)
	}
	present := make([]bool, g.ctx.size)
	for _, r := range survivors {
		if r < 0 || r >= g.ctx.size {
			return nil, fmt.Errorf("hear: survivor rank %d outside communicator of %d", r, g.ctx.size)
		}
		if present[r] {
			return nil, fmt.Errorf("hear: duplicate survivor rank %d", r)
		}
		present[r] = true
	}
	if !present[g.ctx.rank] {
		return nil, fmt.Errorf("hear: own rank %d absent from survivor set", g.ctx.rank)
	}
	missing := make([]int, 0, g.ctx.size-len(survivors))
	for r, ok := range present {
		if !ok {
			missing = append(missing, r)
		}
	}
	return missing, nil
}

// VerifySurvivors checks a degraded round's reduced (ciphertext, tag) lane
// pair against the survivor subset: the HoMAC key sum telescopes per
// missing run just like the noise, so verification stays Θ(runs) per
// element. With verification disabled it is a no-op.
func (g *GatewaySealer) VerifySurvivors(reducedCipher, reducedTags []byte, survivors []int) error {
	if g.verifier == nil {
		return nil
	}
	missing, err := g.missingFromSurvivors(survivors)
	if err != nil {
		return err
	}
	return g.verify(reducedCipher, reducedTags, missing, len(survivors))
}

// OpenSurvivors decrypts a degraded round's reduced ciphertext lane with
// the missing ranks' noise canceled. The result is bit-identical to a fresh
// flat round run over only the survivors. A full survivor set degenerates
// to Open.
func (g *GatewaySealer) OpenSurvivors(reduced []byte, out []int64, survivors []int) error {
	missing, err := g.missingFromSurvivors(survivors)
	if err != nil {
		return err
	}
	return g.open(reduced, out, missing)
}
