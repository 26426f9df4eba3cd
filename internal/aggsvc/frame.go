// Package aggsvc is the secure aggregation gateway: HEAR's §4 in-network
// aggregation served over TCP. Remote clients seal vectors with their own
// keys (hear.GatewaySealer), the gateway folds the opaque ciphertext and
// HoMAC-tag lanes with the keyless kernels of internal/core/fold, and the
// clients verify and decrypt the aggregate. The server is key-blind by
// construction: this package imports no key material and cannot decrypt,
// forge, or selectively modify a verified aggregate — exactly the trust the
// paper places in an untrusted switch.
//
// The wire protocol is a length-prefixed binary framing with one version:
//
//	| u32 length (LE) | u8 type | payload ... |
//
// where length counts the type byte plus the payload. Frame types: a client
// opens a round with HELLO and is admitted with JOIN; it streams its lanes
// in SUBMIT chunks; the gateway answers every participant with RESULT, or
// with a typed ABORT — HEAR's telescoping noises need every participant, so
// by default a partial aggregate is cryptographically meaningless and the
// round fails closed. STATS exposes the gateway's counters and phase
// timings.
//
// Dropout tolerance (Config.DegradedRounds) is a capability, not a
// version: every HELLO carries the client's key-schedule rank, and a client
// whose key policy can re-derive missing ranks' noise sets FlagDegradedOK.
// A SURVIVORS frame lets a federation leaf declare which ranks its one
// submission covers, and a degraded RESULT appends the explicit survivor
// set after the tag lane. A complete round's RESULT has no trailer, and in
// a degraded round a participant without the flag is cut with a retryable
// ABORT instead of receiving a survivor set it cannot decrypt.
package aggsvc

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// ProtocolVersion is the one wire protocol version: this repository is both
// ends of every connection, so a HELLO naming any other is refused with
// AbortVersion. What a client can consume (survivor-set RESULTs) is carried
// by FlagDegradedOK, not by the version.
const ProtocolVersion uint16 = 2

// FrameType identifies a protocol frame.
type FrameType uint8

// Frame types.
const (
	FrameHello    FrameType = 1 // client → server: request admission to a round
	FrameJoin     FrameType = 2 // server → client: admission (round, slot, group, deadline, chunk)
	FrameSubmit   FrameType = 3 // client → server: one chunk of a lane
	FrameResult   FrameType = 4 // server → client: the reduced lanes
	FrameAbort    FrameType = 5 // either direction: the round failed, typed
	FrameStatsReq FrameType = 6 // client → server: request counters
	FrameStats    FrameType = 7 // server → client: counters and phase timings
	// FrameSurvivors (client → server) declares which key-schedule
	// ranks the sender's one submission covers — a federation leaf relaying
	// its cohort's fold names the cohort's rank set (and whether it is
	// complete), so the upstream tier can compute a sound survivor union
	// when it degrades a round. Flat clients never send it; their coverage
	// is the HELLO rank.
	FrameSurvivors FrameType = 8
)

func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "HELLO"
	case FrameJoin:
		return "JOIN"
	case FrameSubmit:
		return "SUBMIT"
	case FrameResult:
		return "RESULT"
	case FrameAbort:
		return "ABORT"
	case FrameStatsReq:
		return "STATSREQ"
	case FrameStats:
		return "STATS"
	case FrameSurvivors:
		return "SURVIVORS"
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// Lanes of a SUBMIT frame.
const (
	LaneData = 0 // ciphertext, folded mod 2^64
	LaneTag  = 1 // HoMAC tags, folded mod the verification prime
)

// Scheme identifiers carried in HELLO. The gateway folds lanes with the
// advertised scheme's keyless kernels; it never learns the datatype beyond
// the lane width. Only the additive scheme supports a HoMAC tag lane —
// tag aggregation is linear, so PROD and XOR rounds run untagged.
const (
	SchemeInt64Sum  uint8 = 1
	SchemeInt64Prod uint8 = 2
	SchemeInt64Xor  uint8 = 3
)

// HELLO flag bits.
const (
	FlagTagged uint8 = 1 << 0 // the client submits a HoMAC tag lane
	// FlagDegradedOK marks a participant able to verify and open a
	// survivor-subset RESULT (its key policy derives missing ranks' noise).
	// Participants without it are cut with a retryable ABORT when a round
	// degrades, never handed a partial aggregate they cannot decrypt.
	FlagDegradedOK uint8 = 1 << 1
)

// DefaultMaxFrameBytes bounds a single frame (length prefix included);
// larger frames are rejected before their payload is read.
const DefaultMaxFrameBytes = 16 << 20

const (
	frameHeaderBytes   = 5  // u32 length + u8 type
	helloPayloadBytes  = 20 // version u16 + scheme u8 + flags u8 + elems u32 + epoch u64 + rank u32
	joinPayloadBytes   = 32
	submitHeaderBytes  = 13 // round u64 + lane u8 + offset u32
	survivorsHeadBytes = 13 // round u64 + flags u8 + count u32
)

// rankUnknown is the HELLO rank wire value for "no key-schedule rank" (e.g.
// a federation leaf, whose coverage arrives via SURVIVORS instead).
const rankUnknown = ^uint32(0)

// AbortCode classifies why a round failed.
type AbortCode uint16

// Abort codes.
const (
	AbortProtocol  AbortCode = 1 + iota // malformed or out-of-order frame
	AbortVersion                        // client/server protocol version mismatch
	AbortMismatch                       // HELLO parameters incompatible with the open round
	AbortOversize                       // a frame exceeded the size limit
	AbortDeadline                       // the round deadline expired with stragglers
	AbortPeerLost                       // another participant disconnected mid-round
	AbortShutdown                       // the gateway is shutting down
	AbortStraggler                      // deadline expired but quorum finished; stragglers were evicted, retry
	AbortUpstream                       // a federated gateway's upstream tier failed the round
)

func (c AbortCode) String() string {
	switch c {
	case AbortProtocol:
		return "protocol-violation"
	case AbortVersion:
		return "version-mismatch"
	case AbortMismatch:
		return "round-mismatch"
	case AbortOversize:
		return "oversized-frame"
	case AbortDeadline:
		return "deadline-expired"
	case AbortPeerLost:
		return "participant-lost"
	case AbortShutdown:
		return "server-shutdown"
	case AbortStraggler:
		return "straggler-evicted"
	case AbortUpstream:
		return "upstream-failure"
	}
	return fmt.Sprintf("abort(%d)", uint16(c))
}

// AbortError is the typed failure a round participant receives. It is the
// error returned by Client.Aggregate when the gateway aborts.
type AbortError struct {
	Round uint64
	Code  AbortCode
	Msg   string
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("aggsvc: round %d aborted (%s): %s", e.Round, e.Code, e.Msg)
}

// ErrFrameTooLarge reports a frame whose declared length exceeds the limit;
// the payload is never read.
type ErrFrameTooLarge struct {
	Declared, Limit int
}

func (e *ErrFrameTooLarge) Error() string {
	return fmt.Sprintf("aggsvc: frame of %d B exceeds the %d B limit", e.Declared, e.Limit)
}

// wireBuf is the pooled scratch one frame emission needs: the 5-byte frame
// header, room for the largest fixed-size payload encoding (HELLO, JOIN,
// SUBMIT header, the RESULT lane prefixes), and the reusable iovec backing
// array for the vectored write. Pooling it keeps every emit path — client
// HELLO/SUBMIT, server JOIN/RESULT fan-out — allocation-free at steady
// state.
type wireBuf struct {
	hdr   [frameHeaderBytes]byte
	fixed [joinPayloadBytes]byte // largest fixed payload (32 B)
	// vecs is the working iovec slice WriteTo consumes; base preserves the
	// full-capacity backing array so pooled reuse never reallocates it.
	vecs net.Buffers
	base net.Buffers
}

var wireBufs = sync.Pool{
	New: func() any { return &wireBuf{base: make(net.Buffers, 0, 8)} },
}

// writeFrame emits one frame as a single vectored write: the header and
// every payload slice go out through one net.Buffers WriteTo, which on a
// TCP connection is one writev syscall regardless of how many slices the
// caller scatter-gathers (a RESULT fan-out passes the round prefix, the
// shared data lane, the tag length, and the shared tag lane without ever
// coalescing them into a staging buffer). On writers without vectored
// support (net.Pipe, bytes.Buffer) WriteTo degrades to sequential writes
// with identical wire bytes.
func writeFrame(w io.Writer, t FrameType, payload ...[]byte) error {
	b := wireBufs.Get().(*wireBuf)
	err := b.writeFrame(w, t, payload...)
	wireBufs.Put(b)
	return err
}

func (b *wireBuf) writeFrame(w io.Writer, t FrameType, payload ...[]byte) error {
	total := 0
	for _, p := range payload {
		total += len(p)
	}
	binary.LittleEndian.PutUint32(b.hdr[:4], uint32(total+1))
	b.hdr[4] = byte(t)
	b.vecs = append(b.base[:0], b.hdr[:])
	for _, p := range payload {
		if len(p) > 0 {
			b.vecs = append(b.vecs, p)
		}
	}
	// WriteTo consumes its receiver as it drains (net.Buffers reslices it
	// forward), so capture the backing array first: base keeps the full-
	// capacity slice and the pooled buffer reuses it on every frame instead
	// of reallocating iovecs.
	n := len(b.vecs)
	if cap(b.vecs) > cap(b.base) {
		b.base = b.vecs
	}
	_, err := b.vecs.WriteTo(w)
	// Drop retained payload references before pooled reuse.
	used := b.base[:n]
	for i := range used {
		used[i] = nil
	}
	b.vecs = nil
	return err
}

// readFrameHeader reads the fixed header and returns the frame type and
// payload length, validating it against max before any payload byte is
// consumed — oversized frames are rejected without buffering them.
func readFrameHeader(r io.Reader, max int) (FrameType, int, error) {
	// The header lands in pooled scratch: a stack array would escape
	// through the io.Reader interface and cost one allocation per frame —
	// the exact kind of hot-loop garbage the zero-copy path eliminates.
	b := wireBufs.Get().(*wireBuf)
	_, err := io.ReadFull(r, b.hdr[:])
	ln := int(binary.LittleEndian.Uint32(b.hdr[:4]))
	t := FrameType(b.hdr[4])
	wireBufs.Put(b)
	if err != nil {
		return 0, 0, err
	}
	if ln < 1 {
		return 0, 0, fmt.Errorf("aggsvc: frame with zero-length body")
	}
	if ln+4 > max {
		return t, ln - 1, &ErrFrameTooLarge{Declared: ln + 4, Limit: max}
	}
	return t, ln - 1, nil
}

// helloFrame is the decoded HELLO payload. Epoch is the client's current
// key-epoch counter (opaque to the key-blind gateway): the gateway takes
// the max across a round's participants and hands it back in JOIN so the
// whole group seals at one agreed epoch, even when a participant missed an
// earlier round's JOIN and fell behind the key schedule.
type helloFrame struct {
	Version uint16
	Scheme  uint8
	Flags   uint8
	Elems   int
	Epoch   uint64
	// Rank is the client's key-schedule rank (-1 = unknown, the wire form
	// rankUnknown). A degraded round's survivor set names ranks, so the
	// server needs to know which rank a flat participant covers.
	Rank int
}

func (h helloFrame) tagged() bool     { return h.Flags&FlagTagged != 0 }
func (h helloFrame) degradedOK() bool { return h.Flags&FlagDegradedOK != 0 }

// putHello encodes a HELLO payload into p (len >= helloPayloadBytes)
// without allocating; emit paths encode into pooled wireBuf scratch.
func putHello(p []byte, h helloFrame) {
	binary.LittleEndian.PutUint16(p[0:], h.Version)
	p[2] = h.Scheme
	p[3] = h.Flags
	binary.LittleEndian.PutUint32(p[4:], uint32(h.Elems))
	binary.LittleEndian.PutUint64(p[8:], h.Epoch)
	rank := rankUnknown
	if h.Rank >= 0 {
		rank = uint32(h.Rank)
	}
	binary.LittleEndian.PutUint32(p[16:], rank)
}

func decodeHello(p []byte) (helloFrame, error) {
	if len(p) != helloPayloadBytes {
		return helloFrame{}, fmt.Errorf("aggsvc: HELLO payload %d B, want %d", len(p), helloPayloadBytes)
	}
	h := helloFrame{
		Version: binary.LittleEndian.Uint16(p[0:]),
		Scheme:  p[2],
		Flags:   p[3],
		Elems:   int(binary.LittleEndian.Uint32(p[4:])),
		Epoch:   binary.LittleEndian.Uint64(p[8:]),
		Rank:    -1,
	}
	if rank := binary.LittleEndian.Uint32(p[16:]); rank != rankUnknown {
		h.Rank = int(rank)
	}
	return h, nil
}

// joinFrame is the decoded JOIN payload: the admission ticket into a
// round whose membership has sealed. Epoch is the key epoch every
// participant must seal at (max of the group's HELLO epochs, plus one).
type joinFrame struct {
	Round      uint64
	Slot       int
	Group      int
	DeadlineMS uint32 // time remaining until the round deadline
	ChunkBytes int    // the gateway's SUBMIT chunk granularity
	Epoch      uint64 // the round's agreed seal epoch
}

// remainingMS is JOIN's DeadlineMS for a round with d left: whole
// milliseconds, 0 once the deadline has passed — a negative duration must
// not wrap into a 49-day budget.
func remainingMS(d time.Duration) uint32 {
	if d <= 0 {
		return 0
	}
	return uint32(d.Milliseconds())
}

// putJoin encodes a JOIN payload into p (len >= joinPayloadBytes) without
// allocating.
func putJoin(p []byte, j joinFrame) {
	binary.LittleEndian.PutUint64(p[0:], j.Round)
	binary.LittleEndian.PutUint32(p[8:], uint32(j.Slot))
	binary.LittleEndian.PutUint32(p[12:], uint32(j.Group))
	binary.LittleEndian.PutUint32(p[16:], j.DeadlineMS)
	binary.LittleEndian.PutUint32(p[20:], uint32(j.ChunkBytes))
	binary.LittleEndian.PutUint64(p[24:], j.Epoch)
}

func decodeJoin(p []byte) (joinFrame, error) {
	if len(p) != joinPayloadBytes {
		return joinFrame{}, fmt.Errorf("aggsvc: JOIN payload %d B, want %d", len(p), joinPayloadBytes)
	}
	return joinFrame{
		Round:      binary.LittleEndian.Uint64(p[0:]),
		Slot:       int(binary.LittleEndian.Uint32(p[8:])),
		Group:      int(binary.LittleEndian.Uint32(p[12:])),
		DeadlineMS: binary.LittleEndian.Uint32(p[16:]),
		ChunkBytes: int(binary.LittleEndian.Uint32(p[20:])),
		Epoch:      binary.LittleEndian.Uint64(p[24:]),
	}, nil
}

// survivorsFrame is the decoded SURVIVORS payload: the rank set one
// participant's submission covers. Complete=false marks a subtree whose
// own round already degraded (the listed ranks are its survivors, with
// others lost below), which forces the upstream round to carry a survivor
// set even if nobody at this tier is evicted.
type survivorsFrame struct {
	Round    uint64
	Complete bool
	Ranks    []uint32
}

const flagSurvivorsComplete uint8 = 1 << 0

func encodeSurvivors(s survivorsFrame) []byte {
	p := make([]byte, survivorsHeadBytes+4*len(s.Ranks))
	binary.LittleEndian.PutUint64(p[0:], s.Round)
	if s.Complete {
		p[8] = flagSurvivorsComplete
	}
	binary.LittleEndian.PutUint32(p[9:], uint32(len(s.Ranks)))
	for i, r := range s.Ranks {
		binary.LittleEndian.PutUint32(p[survivorsHeadBytes+4*i:], r)
	}
	return p
}

func decodeSurvivors(p []byte) (survivorsFrame, error) {
	if len(p) < survivorsHeadBytes {
		return survivorsFrame{}, fmt.Errorf("aggsvc: SURVIVORS payload %d B too short", len(p))
	}
	if p[8]&^flagSurvivorsComplete != 0 {
		return survivorsFrame{}, fmt.Errorf("aggsvc: SURVIVORS unknown flag bits %#x", p[8])
	}
	s := survivorsFrame{
		Round:    binary.LittleEndian.Uint64(p[0:]),
		Complete: p[8]&flagSurvivorsComplete != 0,
	}
	n := int(binary.LittleEndian.Uint32(p[9:]))
	if len(p) != survivorsHeadBytes+4*n {
		return survivorsFrame{}, fmt.Errorf("aggsvc: SURVIVORS payload %d B for %d ranks, want %d",
			len(p), n, survivorsHeadBytes+4*n)
	}
	if n == 0 {
		return s, nil
	}
	s.Ranks = make([]uint32, n)
	for i := range s.Ranks {
		s.Ranks[i] = binary.LittleEndian.Uint32(p[survivorsHeadBytes+4*i:])
	}
	return s, nil
}

// encodeSurvivorList encodes the RESULT survivor trailer: u32 count + the
// ranks. It is appended after the tag lane only in degraded rounds, so a
// complete round's RESULT carries no trailer at all.
func encodeSurvivorList(ranks []uint32) []byte {
	p := make([]byte, 4+4*len(ranks))
	binary.LittleEndian.PutUint32(p[0:], uint32(len(ranks)))
	for i, r := range ranks {
		binary.LittleEndian.PutUint32(p[4+4*i:], r)
	}
	return p
}

// submitHeader is the fixed prefix of a SUBMIT payload; the chunk bytes
// follow it.
type submitHeader struct {
	Round  uint64
	Lane   uint8
	Offset int // byte offset of this chunk within the lane
}

// putSubmitHeader encodes a SUBMIT chunk prefix into p (len >=
// submitHeaderBytes) without allocating.
func putSubmitHeader(p []byte, h submitHeader) {
	binary.LittleEndian.PutUint64(p[0:], h.Round)
	p[8] = h.Lane
	binary.LittleEndian.PutUint32(p[9:], uint32(h.Offset))
}

func decodeSubmitHeader(p []byte) (submitHeader, error) {
	if len(p) < submitHeaderBytes {
		return submitHeader{}, fmt.Errorf("aggsvc: SUBMIT payload %d B < %d B header", len(p), submitHeaderBytes)
	}
	return submitHeader{
		Round:  binary.LittleEndian.Uint64(p[0:]),
		Lane:   p[8],
		Offset: int(binary.LittleEndian.Uint32(p[9:])),
	}, nil
}

// decodeResult parses a RESULT payload: the round id, then each reduced
// lane behind a u32 length prefix (the tag lane is empty for unverified
// rounds), then — only when the round degraded — the survivor trailer (u32
// count + count×u32 ranks). The returned lanes alias p. The server emits the
// same layout as a vectored write of the shared accumulators
// (resultVectors), never as one staged buffer. A nil survivors return means
// the aggregate is complete; a trailer that is present but malformed —
// truncated, oversize, or an empty survivor set — is an error, never
// silently ignored: opening a partial aggregate as if it were complete would
// decrypt garbage.
func decodeResult(p []byte) (round uint64, data, tags []byte, survivors []uint32, err error) {
	if len(p) < 16 {
		return 0, nil, nil, nil, fmt.Errorf("aggsvc: RESULT payload %d B too short", len(p))
	}
	round = binary.LittleEndian.Uint64(p[0:])
	dn := int(binary.LittleEndian.Uint32(p[8:]))
	if 12+dn+4 > len(p) {
		return 0, nil, nil, nil, fmt.Errorf("aggsvc: RESULT data lane %d B overruns payload", dn)
	}
	data = p[12 : 12+dn]
	tn := int(binary.LittleEndian.Uint32(p[12+dn:]))
	if 16+dn+tn > len(p) {
		return 0, nil, nil, nil, fmt.Errorf("aggsvc: RESULT tag lane %d B overruns payload", tn)
	}
	if tn > 0 {
		tags = p[16+dn : 16+dn+tn]
	}
	rest := p[16+dn+tn:]
	if len(rest) == 0 {
		return round, data, tags, nil, nil
	}
	if len(rest) < 4 {
		return 0, nil, nil, nil, fmt.Errorf("aggsvc: RESULT survivor trailer %d B too short", len(rest))
	}
	n := int(binary.LittleEndian.Uint32(rest))
	if n == 0 {
		return 0, nil, nil, nil, fmt.Errorf("aggsvc: RESULT names an empty survivor set")
	}
	if len(rest) != 4+4*n {
		return 0, nil, nil, nil, fmt.Errorf("aggsvc: RESULT survivor trailer %d B for %d ranks, want %d",
			len(rest), n, 4+4*n)
	}
	survivors = make([]uint32, n)
	for i := range survivors {
		survivors[i] = binary.LittleEndian.Uint32(rest[4+4*i:])
	}
	return round, data, tags, survivors, nil
}

func encodeAbort(e *AbortError) []byte {
	msg := e.Msg
	if len(msg) > 1<<12 {
		msg = msg[:1<<12]
	}
	p := make([]byte, 12+len(msg))
	binary.LittleEndian.PutUint64(p[0:], e.Round)
	binary.LittleEndian.PutUint16(p[8:], uint16(e.Code))
	binary.LittleEndian.PutUint16(p[10:], uint16(len(msg)))
	copy(p[12:], msg)
	return p
}

func decodeAbort(p []byte) (*AbortError, error) {
	if len(p) < 12 {
		return nil, fmt.Errorf("aggsvc: ABORT payload %d B too short", len(p))
	}
	n := int(binary.LittleEndian.Uint16(p[10:]))
	if 12+n > len(p) {
		n = len(p) - 12
	}
	return &AbortError{
		Round: binary.LittleEndian.Uint64(p[0:]),
		Code:  AbortCode(binary.LittleEndian.Uint16(p[8:])),
		Msg:   string(p[12 : 12+n]),
	}, nil
}

// encodeStats serializes named counters as (u8 name length, name, u64
// value) entries, sorted by key so the wire form is deterministic. The
// payload size is computed exactly from the key set up front, so encoding
// appends into one right-sized allocation instead of growing quadratically.
func encodeStats(stats map[string]uint64, keys []string) []byte {
	size := 2
	for _, k := range keys {
		n := len(k)
		if n > 255 {
			n = 255
		}
		size += 1 + n + 8
	}
	p := make([]byte, 2, size)
	binary.LittleEndian.PutUint16(p, uint16(len(keys)))
	for _, k := range keys {
		name := k
		if len(name) > 255 {
			name = name[:255]
		}
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], stats[k])
		p = append(p, byte(len(name)))
		p = append(p, name...)
		p = append(p, v[:]...)
	}
	return p
}

func decodeStats(p []byte) (map[string]uint64, error) {
	if len(p) < 2 {
		return nil, fmt.Errorf("aggsvc: STATS payload %d B too short", len(p))
	}
	n := int(binary.LittleEndian.Uint16(p))
	out := make(map[string]uint64, n)
	off := 2
	for i := 0; i < n; i++ {
		if off >= len(p) {
			return nil, fmt.Errorf("aggsvc: STATS entry %d overruns payload", i)
		}
		nl := int(p[off])
		off++
		if off+nl+8 > len(p) {
			return nil, fmt.Errorf("aggsvc: STATS entry %d overruns payload", i)
		}
		name := string(p[off : off+nl])
		out[name] = binary.LittleEndian.Uint64(p[off+nl:])
		off += nl + 8
	}
	return out, nil
}
