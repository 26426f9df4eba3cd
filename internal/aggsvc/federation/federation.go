// Package federation cascades key-blind partial folds across gateway
// tiers: the gateway-of-gateways topology that scales HEAR's secure
// aggregation from one flat internal/aggsvc box to millions of clients.
//
// A leaf gateway folds its cohort's sealed lanes with the ordinary worker-
// pool fold kernels, then acts as a *client* of an upstream gateway: it
// speaks the existing HELLO/JOIN/SUBMIT/RESULT frame protocol to submit
// the partial aggregate, and fans the globally reduced RESULT back down to
// its cohort. The cascade is safe for exactly the reason the paper trusts
// an in-network switch: HEAR's canceling-noise schemes make every
// aggregator key-blind, and the fold operators are associative and
// commutative, so a tree of partial folds is bit-identical to one flat
// fold — this package imports no key material and cannot decrypt at any
// tier (see TestFederationKeyBlind).
//
// Epoch negotiation reuses the HELLO/JOIN seal-epoch machinery unchanged:
// a leaf advertises its cohort's *maximum* HELLO epoch upstream (without
// the +1 a flat round would apply) and forwards the upstream JOIN's epoch
// verbatim down to its cohort. The max+1 rule therefore runs exactly once,
// at the federation's root, and every client of the whole tree seals at
// the same epoch a flat round over the same client set would have agreed
// on.
package federation

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hear/internal/aggsvc"
	"hear/internal/metrics"
)

// Defaults for Config zero values.
const (
	DefaultTimeout     = 30 * time.Second
	DefaultDialBackoff = 50 * time.Millisecond
)

// DefaultDialBackoffMax caps the exponential dial backoff.
const DefaultDialBackoffMax = 2 * time.Second

// Config configures one gateway's uplink to its upstream tier.
type Config struct {
	// Addr is the upstream gateway's TCP address. Ignored when Dial is set.
	Addr string
	// Dial, when non-nil, produces upstream connections (tests use
	// PipeListener.Dial; production leaves it nil for TCP).
	Dial func() (net.Conn, error)
	// Timeout bounds one whole upstream exchange — HELLO through RESULT —
	// so a wedged upstream tier cannot hang a leaf's cohorts forever
	// (default 30s). It should exceed the upstream gateway's round
	// deadline.
	Timeout time.Duration
	// DialRetry is how many times a failed upstream dial is re-attempted
	// (with DialBackoff between tries) before the cohort's round aborts.
	// Dialing happens before anything is sealed, so retrying it is always
	// safe; the exchange itself is never retried — a re-rounded upstream
	// could name a different seal epoch than the one the cohort already
	// sealed at, so mid-round failures abort typed (AbortUpstream) and the
	// *clients* re-round end to end.
	DialRetry int
	// DialBackoff is the first sleep between dial attempts (default 50ms),
	// doubling per attempt up to DefaultDialBackoffMax with deterministic
	// jitter — a whole leaf tier redialing a restarted root must spread
	// out, not stampede in lockstep.
	DialBackoff time.Duration
	// MaxFrameBytes bounds upstream frames (default aggsvc's).
	MaxFrameBytes int
	// Tier labels this gateway's depth in the federation (leaves are tier
	// 0's aggregators; the root has no uplink). Only used for metrics.
	Tier int
	// Metrics, when non-nil, publishes per-tier federation counters:
	// upstream rounds/failures/dial retries, negotiate and relay
	// latencies, and in-flight exchanges, all labeled with the tier.
	Metrics *metrics.Registry
	// Logf, when non-nil, receives one line per upstream failure.
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.Addr == "" && c.Dial == nil {
		return fmt.Errorf("federation: neither upstream address nor dialer configured")
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.DialRetry < 0 {
		return fmt.Errorf("federation: negative dial retry %d", c.DialRetry)
	}
	if c.DialBackoff <= 0 {
		c.DialBackoff = DefaultDialBackoff
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// Uplink connects a gateway to its upstream tier. Its Dialer plugs into
// aggsvc.Config.Uplink; each cohort round gets an independent upstream
// exchange, so many cohorts cascade concurrently over separate
// connections.
type Uplink struct {
	cfg Config

	// bufs recycles the per-exchange frame read buffers: each upstream
	// round's client draws its reusable RESULT/JOIN buffer here and returns
	// it when its exchange ends, so a long-lived leaf's steady state keeps
	// a handful of high-water buffers instead of allocating one per round.
	bufs sync.Pool

	dialSeq atomic.Int64 // distinct jitter seed per dial loop

	rounds        *metrics.Counter
	failures      *metrics.Counter
	dialRetries   *metrics.Counter
	partialRelays *metrics.Counter
	degradedDown  *metrics.Counter
	inflight      *metrics.Gauge
	negotiateS    *metrics.Histogram
	relayS        *metrics.Histogram
}

// latencyBounds bucket upstream phase latencies from sub-millisecond
// (in-process pipes) to tens of seconds (a straggling upstream round).
var latencyBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 30}

// New validates cfg and returns an uplink ready for Dialer.
func New(cfg Config) (*Uplink, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	u := &Uplink{cfg: cfg}
	if r := cfg.Metrics; r != nil {
		labels := metrics.Labels{"tier": strconv.Itoa(cfg.Tier)}
		u.rounds = r.Counter("hear_federation_upstream_rounds_total", labels)
		u.failures = r.Counter("hear_federation_upstream_failures_total", labels)
		u.dialRetries = r.Counter("hear_federation_upstream_dial_retries_total", labels)
		u.partialRelays = r.Counter("hear_federation_partial_relays_total", labels)
		u.degradedDown = r.Counter("hear_federation_rounds_degraded_total", labels)
		u.inflight = r.Gauge("hear_federation_upstream_inflight", labels)
		u.negotiateS = r.Histogram("hear_federation_negotiate_seconds", labels, latencyBounds)
		u.relayS = r.Histogram("hear_federation_relay_seconds", labels, latencyBounds)
		r.Gauge("hear_federation_tier", labels).Set(int64(cfg.Tier))
	}
	return u, nil
}

// Dialer returns the aggsvc.Config.Uplink hook: it dials the upstream
// gateway (with retry — nothing is sealed yet) and hands back the
// exchange.
func (u *Uplink) Dialer() aggsvc.UplinkDialer {
	return func(cohort int) (aggsvc.UplinkRound, error) {
		conn, err := u.dial()
		if err != nil {
			u.failures.Inc()
			u.cfg.Logf("federation: cohort %d: upstream dial failed: %v", cohort, err)
			return nil, err
		}
		u.inflight.Add(1)
		return &wireRound{u: u, cohort: cohort, conn: conn,
			client: aggsvc.NewClient(conn, nil, aggsvc.ClientOptions{
				MaxFrameBytes: u.cfg.MaxFrameBytes,
				ReadBufPool:   &u.bufs,
			})}, nil
	}
}

func (u *Uplink) dial() (net.Conn, error) {
	dial := u.cfg.Dial
	if dial == nil {
		addr := u.cfg.Addr
		timeout := u.cfg.Timeout
		dial = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, timeout) }
	}
	bo := &aggsvc.Backoff{Base: u.cfg.DialBackoff, Max: DefaultDialBackoffMax,
		Seed: int64(u.cfg.Tier)<<32 ^ u.dialSeq.Add(1)}
	var lastErr error
	for attempt := 0; attempt <= u.cfg.DialRetry; attempt++ {
		if attempt > 0 {
			u.dialRetries.Inc()
			bo.Sleep(attempt)
		}
		conn, err := dial()
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, &aggsvc.GiveUpError{Op: "dial upstream", Attempts: u.cfg.DialRetry + 1, Last: lastErr}
}

// wireRound is one upstream exchange: a lane-level aggsvc.Client on its own
// connection, driven by the goroutine that calls Negotiate and Relay (the
// server core's runCascade). It holds no keys and no sealer — a relay moves
// ciphertext; only the clients at the tree's leaves verify and open it.
//
// Buffer ownership: the client's recycled read buffer is touched only by the
// goroutine that runs Negotiate/Relay, and that goroutine returns it to the
// pool once its exchange has ended; Close, which may race a blocked read,
// only closes the connection to unblock it.
type wireRound struct {
	u      *Uplink
	cohort int
	conn   net.Conn

	client *aggsvc.Client
	ticket aggsvc.Ticket // zero until Negotiate; Exchange refuses it

	closed atomic.Bool
}

// Negotiate sends the cohort's HELLO upstream and blocks until the upstream
// JOIN names the federation's agreed seal epoch. The whole exchange, HELLO
// through RESULT, runs under one cfg.Timeout deadline on this connection.
func (w *wireRound) Negotiate(scheme uint8, elems int, tagged bool, cohortEpoch uint64) (uint64, error) {
	w.u.rounds.Inc()
	start := time.Now()
	w.conn.SetDeadline(start.Add(w.u.cfg.Timeout))
	// A relay has no key-schedule rank of its own (its submission stands in
	// for the ranks Relay declares) and always accepts a survivor-set
	// RESULT: it verifies and opens nothing, the survivor union just fans
	// down to the cohort's clients, who do.
	tk, err := w.client.Join(aggsvc.RoundSpec{Scheme: scheme, Elems: elems, Tagged: tagged,
		Epoch: cohortEpoch, Rank: -1, DegradedOK: true})
	if err != nil {
		w.client.Close()
		return 0, w.fail("negotiation", err)
	}
	w.ticket = tk
	w.u.negotiateS.Observe(time.Since(start).Seconds())
	return tk.Epoch, nil
}

// Relay submits the cohort's folded partial lanes — with their declared rank
// coverage — blocks for the globally reduced ones, and writes them back into
// data and tags. It returns the global survivor union (nil when complete).
func (w *wireRound) Relay(data, tags []byte, covers []uint32, complete bool) ([]uint32, error) {
	// Whatever happens below, the exchange is over when Relay returns, so
	// the read buffer rejoins the pool from this goroutine.
	defer w.client.Close()
	var cov *aggsvc.Coverage
	if covers != nil || !complete {
		cov = &aggsvc.Coverage{Ranks: covers, Complete: complete}
	}
	if !complete {
		w.u.partialRelays.Inc()
	}
	start := time.Now()
	red, err := w.client.Exchange(w.ticket, data, tags, cov)
	if err != nil {
		return nil, w.fail("relay", err)
	}
	w.u.relayS.Observe(time.Since(start).Seconds())
	if len(red.Data) != len(data) || len(red.Tags) != len(tags) {
		return nil, w.fail("relay", fmt.Errorf("upstream returned %d/%d B lanes for %d/%d B submitted",
			len(red.Data), len(red.Tags), len(data), len(tags)))
	}
	// The reduced lanes alias the client's recycled read buffer, and the
	// leaf's downlink fan-out outlives this exchange. Exchange has written
	// data and tags upstream in full before RESULT arrives, so the one copy
	// the cascade pays per cohort round lands in the very lanes it sent, and
	// everything past it is zero-copy (see DESIGN.md, "Zero-copy wire
	// path"). Verification belongs to the key-holding clients; a key-blind
	// tier forwards the survivor union verbatim.
	copy(data, red.Data)
	copy(tags, red.Tags)
	if red.Survivors != nil {
		w.u.degradedDown.Inc()
	}
	return red.Survivors, nil
}

// fail counts and logs one upstream failure.
func (w *wireRound) fail(stage string, err error) error {
	w.u.failures.Inc()
	w.u.cfg.Logf("federation: cohort %d: upstream %s failed: %v", w.cohort, stage, err)
	return err
}

// Close releases the upstream connection, which also unblocks a Negotiate
// or Relay parked on it, so a leaf round dying underneath an exchange
// unwinds promptly. Safe to call concurrently and repeatedly.
func (w *wireRound) Close() error {
	if w.closed.Swap(true) {
		return nil
	}
	w.u.inflight.Add(-1)
	return w.conn.Close()
}
