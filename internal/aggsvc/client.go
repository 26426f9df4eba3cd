package aggsvc

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Sealer is the key-holding side of a gateway round: it seals a vector
// into opaque lanes before upload and verifies/opens the reduced lanes the
// gateway returns. hear.Context implements it via NewGatewaySealer; this
// package deliberately depends only on the interface, never on key
// material.
type Sealer interface {
	// Seal encrypts vals for one round at the given key epoch, advancing
	// the collective key from its current epoch up to it (epoch 0 means
	// "advance exactly once"); tags is nil when verification is disabled.
	// The client calls Seal only after JOIN names the round's agreed
	// epoch, so every participant of a round seals at the same epoch even
	// if one of them previously fell behind the key schedule.
	//
	// Lifetime: cipher and tags may be the sealer's own reused scratch
	// (hear.GatewaySealer's are). They are valid until the sealer's next
	// Seal and no longer; the client writes them to the wire before it
	// returns from the round, re-seals on every retry, and never holds
	// them across rounds. A caller that must keep a lane copies it.
	Seal(vals []int64, epoch uint64) (cipher, tags []byte, err error)
	// Verify checks the reduced lanes before they are trusted. The lanes
	// must be exactly as long as the vector last sealed.
	Verify(reducedCipher, reducedTags []byte) error
	// Open decrypts the reduced data lane — exactly as long as the vector
	// last sealed — into out, leaving reduced untouched.
	Open(reduced []byte, out []int64) error
	// Tagged reports whether Seal will produce a tag lane; the client
	// advertises it in HELLO, before anything is sealed.
	Tagged() bool
	// Epoch is the sealer's current key-epoch counter, advertised in
	// HELLO so the gateway can pick the group's seal epoch. It is an
	// opaque counter — never key material.
	Epoch() uint64
}

// SchemeIDer is optionally implemented by Sealers bound to a wire scheme
// other than the default SchemeInt64Sum; the client advertises the id in
// HELLO so the gateway picks the matching keyless fold kernels.
type SchemeIDer interface {
	SchemeID() uint8
}

// DegradedSealer is optionally implemented by Sealers that can verify and
// open a *partial* aggregate — one reduced over an explicit survivor subset
// of the group, with the missing ranks' noise re-derived and canceled
// (hear.GatewaySealer under shared-group keys). A client whose sealer
// accepts degraded results says so in HELLO (its rank and FlagDegradedOK),
// and a survivor-set RESULT routes through VerifySurvivors/OpenSurvivors
// instead of Verify/Open. survivors is the wire-order global rank set the
// RESULT declared — passed as the surviving set (not the missing one)
// because a key-blind relay cannot know the group size needed to complement
// it.
type DegradedSealer interface {
	// RankID is this sealer's key-schedule rank.
	RankID() int
	// AcceptsDegraded reports whether the sealer can actually cancel
	// missing-rank noise; false keeps FlagDegradedOK (and the rank) out of
	// HELLO, so the gateway never routes a partial aggregate here.
	AcceptsDegraded() bool
	// VerifySurvivors checks the reduced lanes against the survivor set.
	VerifySurvivors(reducedCipher, reducedTags []byte, survivors []int) error
	// OpenSurvivors decrypts the partial aggregate over the survivor set.
	OpenSurvivors(reduced []byte, out []int64, survivors []int) error
}

// ClientOptions tunes a gateway client.
type ClientOptions struct {
	// MaxFrameBytes bounds incoming frames (default DefaultMaxFrameBytes).
	MaxFrameBytes int
	// ChunkBytes, when non-zero, caps the SUBMIT chunk below the size the
	// gateway advertises in JOIN.
	ChunkBytes int
	// Timeout bounds one whole Aggregate attempt, and connection
	// establishment in Dial and its reconnects (0 = no deadline). Without
	// it a dead gateway blocks the client forever. Join and Exchange arm no
	// deadline of their own; a lane-level caller sets one on its connection.
	Timeout time.Duration
	// Dialer, when non-nil, produces the connections this client uses —
	// both the retry path's reconnects and (for Dial) the initial one.
	// Retry requires it: a failed round always redials on a fresh
	// connection, because after a mid-submit abort the old stream may hold
	// half a frame.
	Dialer func() (net.Conn, error)
	// Retry is how many times Aggregate re-attempts a round after a
	// retryable failure (transport errors and the gateway's Deadline,
	// PeerLost and Straggler aborts). Zero disables retry. Retried rounds
	// re-seal — safe because a client only seals after JOIN certifies a
	// full round and names the group's agreed key epoch, so however the
	// previous attempt died, the next round's participants all seal at
	// one epoch.
	Retry int
	// RetryBackoff is the sleep before the first re-attempt (default 50ms),
	// doubling per attempt up to 2s, with ±25% deterministic jitter derived
	// from JitterSeed so a thundering herd of identically-configured clients
	// still spreads out (see Backoff).
	RetryBackoff time.Duration
	JitterSeed   int64
	// ReadBufPool, when non-nil, is a *sync.Pool of []byte the client draws
	// its reusable frame read buffer from and returns on Close. Fleets of
	// clients in one process (cmd/hearagg's load generator, the federation
	// Uplink) share one pool so sequential rounds recycle a handful of
	// high-water buffers instead of growing one per client.
	ReadBufPool *sync.Pool
}

func (o *ClientOptions) fill() {
	if o.MaxFrameBytes <= 0 {
		o.MaxFrameBytes = DefaultMaxFrameBytes
	}
}

// Client drives gateway rounds. It is not safe for concurrent use — like
// a Context, it belongs to one participant.
type Client struct {
	conn   net.Conn // nil when a failed attempt consumed the connection
	sealer Sealer
	opt    ClientOptions
	bo     Backoff // retry delays; its lifetime counter feeds the jitter hash
	// rbuf is the reusable frame read buffer: readFrameReuse grows it to
	// the largest frame seen (bounded by MaxFrameBytes) and every later
	// frame lands in it without allocating. Frames returned to callers
	// alias rbuf and are valid only until the next read — Aggregate fully
	// consumes each frame before reading the next, and an Exchange caller
	// that retains the reduced lanes (the federation relay) copies.
	rbuf []byte
}

// NewClient wraps an established connection (TCP, net.Pipe, ...). Set
// ClientOptions.Dialer to enable reconnect-and-retry. sealer may be nil for
// a lane-level client that only calls Join and Exchange — a key-blind relay
// has nothing to seal with.
func NewClient(conn net.Conn, sealer Sealer, opt ClientOptions) *Client {
	opt.fill()
	return &Client{conn: conn, sealer: sealer, opt: opt, bo: Backoff{Base: opt.RetryBackoff, Seed: opt.JitterSeed}}
}

// Dial connects to a gateway over TCP, bounded by Timeout. Unless a custom
// Dialer is given, reconnects reuse the same bounded TCP dialer.
func Dial(addr string, sealer Sealer, opt ClientOptions) (*Client, error) {
	if opt.Dialer == nil {
		opt.Dialer = func() (net.Conn, error) {
			// A zero timeout means no bound, to net.DialTimeout as to us.
			return net.DialTimeout("tcp", addr, opt.Timeout)
		}
	}
	conn, err := opt.Dialer()
	if err != nil {
		return nil, err
	}
	return NewClient(conn, sealer, opt), nil
}

// Round describes a completed aggregation round.
type Round struct {
	ID      uint64
	Slot    int
	Group   int
	Elapsed time.Duration
	Retries int // attempts beyond the first that this call needed
	// Degraded reports that the aggregate covers only Survivors — the
	// gateway completed the round over the participants that delivered
	// before the deadline and this client's sealer canceled the missing
	// ranks' noise. Survivors is the global rank set in ascending order.
	Degraded  bool
	Survivors []int
}

// errTransient marks failures worth retrying: transport-level errors where
// the round's fate is unknown or known-failed-for-everyone. Protocol,
// version and verification failures stay fatal — retrying cannot fix them
// and a tampered aggregate must never be silently re-rolled.
type errTransient struct{ err error }

func (e *errTransient) Error() string { return e.err.Error() }
func (e *errTransient) Unwrap() error { return e.err }

// retryable classifies an attempt's failure.
func retryable(err error) bool {
	var tr *errTransient
	if errors.As(err, &tr) {
		return true
	}
	var aerr *AbortError
	if errors.As(err, &aerr) {
		switch aerr.Code {
		case AbortDeadline, AbortPeerLost, AbortStraggler, AbortUpstream:
			return true
		}
	}
	return false
}

// Aggregate runs one round: Join (HELLO/JOIN), seal vals at the agreed
// epoch, Exchange the lanes for the reduced aggregate, verify it, and open
// it into out (len(out) >= len(vals)). With Retry > 0 and a Dialer
// configured, retryable failures — lost connections and the gateway's
// Deadline/PeerLost/Straggler aborts — are retried on a fresh connection
// after exponential backoff with jitter; each attempt re-seals, so the
// failed attempt's ciphertext is never reused. Fatal failures (protocol
// violations, verification failures) surface immediately; a gateway-side
// failure surfaces as *AbortError.
func (c *Client) Aggregate(vals, out []int64) (Round, error) {
	if len(out) < len(vals) {
		return Round{}, fmt.Errorf("aggsvc: out %d < %d elements", len(out), len(vals))
	}
	var lastErr error
	for attempt := 0; attempt <= c.opt.Retry; attempt++ {
		if attempt > 0 {
			c.bo.Sleep(attempt)
		}
		if c.conn == nil {
			if c.opt.Dialer == nil {
				return Round{}, fmt.Errorf("aggsvc: connection gone and no Dialer to reconnect (last failure: %w)", lastErr)
			}
			conn, err := c.opt.Dialer()
			if err != nil {
				lastErr = err
				continue
			}
			c.conn = conn
		}
		r, err := c.aggregateOnce(vals, out)
		if err == nil {
			r.Retries = attempt
			return r, nil
		}
		if !retryable(err) {
			return Round{}, err
		}
		lastErr = err
		// Always restart from a fresh connection: after a failed round the
		// stream may be desynchronized (half-written SUBMIT, unread frames).
		c.conn.Close()
		c.conn = nil
	}
	return Round{}, &GiveUpError{Op: "round", Attempts: c.opt.Retry + 1, Last: lastErr}
}

// aggregateOnce drives a single round attempt over the current connection:
// the key-holding wrapper around the lane-level Join and Exchange.
func (c *Client) aggregateOnce(vals, out []int64) (Round, error) {
	start := time.Now()
	if c.opt.Timeout > 0 {
		c.conn.SetDeadline(start.Add(c.opt.Timeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	spec := RoundSpec{Scheme: SchemeInt64Sum, Elems: len(vals), Tagged: c.sealer.Tagged(),
		Epoch: c.sealer.Epoch(), Rank: -1}
	if sid, ok := c.sealer.(SchemeIDer); ok {
		spec.Scheme = sid.SchemeID()
	}
	// Declare FlagDegradedOK only when the sealer can actually open a
	// survivor-set RESULT, so a degraded-capable gateway never routes a
	// partial aggregate here otherwise.
	var degraded DegradedSealer
	if d, ok := c.sealer.(DegradedSealer); ok && d.AcceptsDegraded() {
		degraded = d
		spec.Rank = d.RankID()
		spec.DegradedOK = true
	}
	tk, err := c.Join(spec)
	if err != nil {
		return Round{}, err
	}
	// Seal only now: JOIN certifies a full round and names the agreed key
	// epoch, so an epoch is spent only on rounds the whole group runs.
	cipher, tags, err := c.sealer.Seal(vals, tk.Epoch)
	if err != nil {
		return Round{}, fmt.Errorf("aggsvc: seal: %w", err)
	}
	red, err := c.Exchange(tk, cipher, tags, nil)
	if err != nil {
		return Round{}, err
	}
	// Verify before trusting: a tampering (or tag-stripping) gateway must
	// fail here, not decrypt to silently wrong values — and a verification
	// failure is deliberately fatal, not retried, so tampering surfaces.
	// Degraded rounds verify and open against the declared survivor set,
	// re-deriving and canceling exactly the missing ranks' noise.
	var surv []int
	if red.Survivors != nil {
		// The gateway promised (HELLO flag gate) never to send a partial
		// aggregate to a client that cannot open one; a survivor trailer
		// arriving anyway is a protocol violation, fatal like tampering.
		if degraded == nil {
			return Round{}, fmt.Errorf("aggsvc: RESULT names %d survivor ranks but this sealer cannot open a partial aggregate", len(red.Survivors))
		}
		surv = make([]int, len(red.Survivors))
		for i, rk := range red.Survivors {
			surv[i] = int(rk)
		}
		if err := degraded.VerifySurvivors(red.Data, red.Tags, surv); err != nil {
			return Round{}, err
		}
		if err := degraded.OpenSurvivors(red.Data, out[:len(vals)], surv); err != nil {
			return Round{}, err
		}
	} else {
		if err := c.sealer.Verify(red.Data, red.Tags); err != nil {
			return Round{}, err
		}
		if err := c.sealer.Open(red.Data, out[:len(vals)]); err != nil {
			return Round{}, err
		}
	}
	return Round{ID: tk.Round, Slot: tk.Slot, Group: tk.Group, Elapsed: time.Since(start),
		Degraded: surv != nil, Survivors: surv}, nil
}

// RoundSpec is what a participant advertises in HELLO: the round shape the
// gateway matches it on, its key-epoch counter, and — for degraded rounds —
// which key-schedule rank its lanes stand for and whether it can consume a
// survivor-set RESULT.
type RoundSpec struct {
	Scheme     uint8 // SchemeInt64Sum, SchemeInt64Prod or SchemeInt64Xor
	Elems      int
	Tagged     bool   // a HoMAC tag lane follows the data lane
	Epoch      uint64 // current key epoch (a relay: its cohort's maximum)
	Rank       int    // key-schedule rank; -1 for none (a relay declares Coverage instead)
	DegradedOK bool
}

// Ticket is the admission Join returns: the round is full and every
// participant seals at Epoch.
type Ticket struct {
	Round uint64
	Slot  int
	Group int
	Epoch uint64
	chunk int // SUBMIT granularity: the gateway's, capped by ClientOptions.ChunkBytes
}

// Coverage declares which key-schedule ranks one submission stands for — a
// federation leaf relaying its cohort's fold — so the upstream tier can name
// the global survivor union if its round degrades. Complete=false declares
// the coverage itself partial (the leaf's own cohort degraded).
type Coverage struct {
	Ranks    []uint32
	Complete bool
}

// Reduced is the round's aggregate as the gateway returned it. Data and
// Tags alias the client's read buffer and are valid only until the next
// call on the client; Survivors is nil when the aggregate is complete.
type Reduced struct {
	Data, Tags []byte
	Survivors  []uint32
}

// Join opens a round: HELLO out, then JOIN — or the gateway's typed ABORT —
// in. Nothing is sealed yet; the returned ticket names the epoch to seal at.
// Join and Exchange are the lane-level protocol under Aggregate, and all a
// key-blind relay needs of it.
func (c *Client) Join(spec RoundSpec) (Ticket, error) {
	hello := helloFrame{Version: ProtocolVersion, Scheme: spec.Scheme, Elems: spec.Elems,
		Epoch: spec.Epoch, Rank: spec.Rank}
	if spec.Tagged {
		hello.Flags |= FlagTagged
	}
	if spec.DegradedOK {
		hello.Flags |= FlagDegradedOK
	}
	b := wireBufs.Get().(*wireBuf)
	putHello(b.fixed[:helloPayloadBytes], hello)
	err := b.writeFrame(c.conn, FrameHello, b.fixed[:helloPayloadBytes])
	wireBufs.Put(b)
	if err != nil {
		return Ticket{}, &errTransient{fmt.Errorf("aggsvc: hello: %w", err)}
	}
	p, err := c.awaitFrame(FrameJoin)
	if err != nil {
		return Ticket{}, err
	}
	join, err := decodeJoin(p)
	if err != nil {
		return Ticket{}, err
	}
	chunk := join.ChunkBytes
	if c.opt.ChunkBytes > 0 && c.opt.ChunkBytes < chunk {
		chunk = c.opt.ChunkBytes
	}
	if chunk <= 0 {
		return Ticket{}, fmt.Errorf("aggsvc: gateway advertised chunk %d B", chunk)
	}
	return Ticket{Round: join.Round, Slot: join.Slot, Group: join.Group, Epoch: join.Epoch, chunk: chunk}, nil
}

// Exchange submits this participant's sealed lanes for the ticket's round
// (tags nil when untagged; cov non-nil sends a SURVIVORS frame first) and
// blocks for the RESULT, or the gateway's typed ABORT. The reduced lanes are
// checked against the ticket's round id and the submitted length, nothing
// more — verifying them is the key holder's job.
func (c *Client) Exchange(tk Ticket, data, tags []byte, cov *Coverage) (Reduced, error) {
	if tk.chunk <= 0 {
		return Reduced{}, errors.New("aggsvc: Exchange without a Join ticket")
	}
	if cov != nil {
		sf := survivorsFrame{Round: tk.Round, Complete: cov.Complete, Ranks: cov.Ranks}
		if err := writeFrame(c.conn, FrameSurvivors, encodeSurvivors(sf)); err != nil {
			return Reduced{}, &errTransient{fmt.Errorf("aggsvc: survivors: %w", err)}
		}
	}
	if err := c.submitLane(tk.Round, LaneData, data, tk.chunk); err != nil {
		return Reduced{}, err
	}
	if tags != nil {
		if err := c.submitLane(tk.Round, LaneTag, tags, tk.chunk); err != nil {
			return Reduced{}, err
		}
	}
	p, err := c.awaitFrame(FrameResult)
	if err != nil {
		return Reduced{}, err
	}
	round, rdata, rtags, surv, err := decodeResult(p)
	if err != nil {
		return Reduced{}, err
	}
	if round != tk.Round {
		return Reduced{}, fmt.Errorf("aggsvc: RESULT for round %d, joined round %d", round, tk.Round)
	}
	if len(rdata) != len(data) {
		return Reduced{}, fmt.Errorf("aggsvc: reduced lane %d B, submitted %d B", len(rdata), len(data))
	}
	return Reduced{Data: rdata, Tags: rtags, Survivors: surv}, nil
}

// awaitFrame reads the next frame and returns its payload if it is the
// wanted type; an ABORT surfaces as the gateway's typed *AbortError.
func (c *Client) awaitFrame(want FrameType) ([]byte, error) {
	t, p, err := c.readFrameReuse()
	if err != nil {
		return nil, &errTransient{fmt.Errorf("aggsvc: awaiting %s: %w", want, err)}
	}
	if t == FrameAbort {
		return nil, c.abortError(p)
	}
	if t != want {
		return nil, fmt.Errorf("aggsvc: expected %s, got %s", want, t)
	}
	return p, nil
}

// submitLane streams one sealed lane as SUBMIT frames. Each frame is one
// vectored write of the pooled header scratch plus a window of the sealed
// buffer — the lane bytes are never copied and the loop allocates nothing.
func (c *Client) submitLane(round uint64, lane uint8, buf []byte, chunk int) error {
	b := wireBufs.Get().(*wireBuf)
	defer wireBufs.Put(b)
	for off := 0; off < len(buf); off += chunk {
		end := off + chunk
		if end > len(buf) {
			end = len(buf)
		}
		putSubmitHeader(b.fixed[:submitHeaderBytes], submitHeader{Round: round, Lane: lane, Offset: off})
		if err := b.writeFrame(c.conn, FrameSubmit, b.fixed[:submitHeaderBytes], buf[off:end]); err != nil {
			return &errTransient{fmt.Errorf("aggsvc: submit lane %d at %d: %w", lane, off, err)}
		}
	}
	return nil
}

// readFrameReuse reads one frame into the client's reusable buffer,
// growing it at most to the length-checked high-water mark. The returned
// payload aliases the buffer and is valid until the next call.
func (c *Client) readFrameReuse() (FrameType, []byte, error) {
	t, n, err := readFrameHeader(c.conn, c.opt.MaxFrameBytes)
	if err != nil {
		return t, nil, err
	}
	if c.rbuf == nil && c.opt.ReadBufPool != nil {
		if v := c.opt.ReadBufPool.Get(); v != nil {
			c.rbuf = v.([]byte)
		}
	}
	if cap(c.rbuf) < n {
		c.rbuf = make([]byte, n)
	}
	p := c.rbuf[:n]
	if _, err := io.ReadFull(c.conn, p); err != nil {
		return t, nil, err
	}
	return t, p, nil
}

func (c *Client) abortError(payload []byte) error {
	e, err := decodeAbort(payload)
	if err != nil {
		return err
	}
	return e
}

// ServerStats fetches the gateway's counters over this connection.
func (c *Client) ServerStats() (map[string]uint64, error) {
	if c.conn == nil {
		if c.opt.Dialer == nil {
			return nil, errors.New("aggsvc: connection gone and no Dialer to reconnect")
		}
		conn, err := c.opt.Dialer()
		if err != nil {
			return nil, err
		}
		c.conn = conn
	}
	if c.opt.Timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opt.Timeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := writeFrame(c.conn, FrameStatsReq); err != nil {
		return nil, err
	}
	t, p, err := c.readFrameReuse()
	if err != nil {
		return nil, err
	}
	if t != FrameStats {
		return nil, fmt.Errorf("aggsvc: expected STATS, got %s", t)
	}
	return decodeStats(p)
}

// Close drops the connection and, when a ReadBufPool is configured,
// returns the grown read buffer for the next client in the fleet.
func (c *Client) Close() error {
	if c.rbuf != nil && c.opt.ReadBufPool != nil {
		c.opt.ReadBufPool.Put(c.rbuf)
		c.rbuf = nil
	}
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}
