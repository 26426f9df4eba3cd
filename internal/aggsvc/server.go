package aggsvc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hear/internal/core/fold"
	enginepool "hear/internal/engine/pool"
	"hear/internal/inc"
	"hear/internal/mempool"
	"hear/internal/metrics"
	"hear/internal/trace"
)

// laneFolds maps a HELLO scheme id onto the keyless kernels the gateway
// executes. The folds are typed as internal/inc's Fold: the gateway is that
// package's switch contract served over TCP — opaque lanes in, the same
// lanes folded out, no keys anywhere. A nil tag fold means the scheme
// cannot carry a HoMAC lane (tag aggregation is linear; only SUM rides it)
// and tagged HELLOs are refused at admission.
var laneFolds = map[uint8]struct{ data, tag inc.Fold }{
	SchemeInt64Sum:  {data: fold.SumUint64, tag: fold.SumMod61},
	SchemeInt64Prod: {data: inc.Fold(fold.Prod(64)), tag: nil},
	SchemeInt64Xor:  {data: fold.Xor, tag: nil},
}

// identitySeed resets a recycled accumulator lane to its fold's identity
// element: zero for SUM and XOR, the word 1 for PROD, which folds
// multiplicatively — folding into zeros would annihilate every submission.
// The lane may hold a previous round's aggregate of any scheme.
func identitySeed(scheme uint8, lane []byte) {
	if scheme != SchemeInt64Prod {
		clear(lane)
		return
	}
	for off := 0; off+8 <= len(lane); off += 8 {
		binary.LittleEndian.PutUint64(lane[off:], 1)
	}
}

// Server phase names reported through STATS (internal/trace timings).
const (
	PhaseRecv  = "recv"  // reading SUBMIT payloads off connections
	PhaseFold  = "fold"  // worker-pool lane folding
	PhaseWait  = "wait"  // handlers parked until their round resolves
	PhaseSend  = "send"  // writing RESULT frames
	PhaseRelay = "relay" // federated: upstream SUBMIT→RESULT exchange
)

// Defaults for Config zero values.
const (
	DefaultRoundTimeout = 10 * time.Second
	DefaultChunkBytes   = 64 << 10
)

// DefaultWriteTimeout bounds any single outgoing frame so one stuck client
// cannot wedge a handler.
const DefaultWriteTimeout = 30 * time.Second

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("aggsvc: server closed")

// Config configures a gateway server.
type Config struct {
	// Group is the number of clients aggregated per round (required).
	Group int
	// Elems, when non-zero, pins the vector length; zero accepts any
	// length, fixed per round by the first HELLO.
	Elems int
	// RoundTimeout bounds a round from its first JOIN to its last SUBMIT
	// byte; stragglers abort the round for everyone (default 10s).
	RoundTimeout time.Duration
	// Quorum, when non-zero, changes what the deadline does: if at least
	// Quorum participants finished when it expires, the stragglers are
	// evicted (connections dropped) and every participant receives the
	// retryable AbortStraggler instead of AbortDeadline. The round still
	// fails closed — HEAR's telescoping noise makes a partial aggregate
	// meaningless — but live clients get a fast, typed signal to re-round
	// without the dead weight. Must not exceed Group.
	Quorum int
	// DegradedRounds changes what a met quorum means at the deadline: the
	// round *completes* over the delivered participants instead of failing
	// closed. Submissions are staged per participant (a straggler killed
	// mid-submit never touches the accumulator), the evicted stragglers'
	// lanes are discarded, and the RESULT names the survivor rank set
	// explicitly so clients cancel exactly the missing ranks' noise
	// (shared-group keys). Survivors that cannot open a partial aggregate —
	// clients that did not set FlagDegradedOK in HELLO — receive the
	// retryable AbortStraggler instead of an unopenable RESULT; if any such
	// client is *among* the survivors the whole round falls back to
	// evict-and-retry, since a degraded RESULT would strand it. Requires
	// Quorum ≥ 1. The default (false) preserves fail-closed semantics
	// exactly.
	DegradedRounds bool
	// MaxFrameBytes rejects larger frames before reading their payload
	// (default 16 MiB). It must accommodate the RESULT frame.
	MaxFrameBytes int
	// ChunkBytes is the SUBMIT granularity, advertised to clients in JOIN
	// and the unit of fold parallelism (default 64 KiB).
	ChunkBytes int
	// Workers sizes the fold worker pool — the same key-blind
	// run-to-completion pool (internal/engine/pool) that backs the rank
	// side's multicore cipher engine (default GOMAXPROCS).
	Workers int
	// PoolBlocks caps the pooled SUBMIT buffers (default 4×Workers); an
	// exhausted pool throttles intake instead of growing.
	PoolBlocks int
	// Cohorts shards the round manager: arriving clients are partitioned
	// into this many cohorts, and each cohort fills its own rounds of
	// Group participants independently (default 1 — the flat gateway).
	// With an Uplink configured, each cohort's partial fold is relayed
	// upstream as one federated client.
	Cohorts int
	// CohortStatic pins client source hosts (the host part of the remote
	// address) to cohorts, overriding the hash assignment. Values must lie
	// in [0, Cohorts).
	CohortStatic map[string]int
	// CohortBy, when non-nil, replaces the assignment policy entirely
	// (tests and custom topologies); it must return a value in
	// [0, Cohorts).
	CohortBy func(remote net.Addr) int
	// Uplink, when non-nil, turns this gateway into a leaf (or middle)
	// tier of a federation: a filled round negotiates its seal epoch
	// through the uplink before JOIN, folds its cohort locally, relays the
	// partial aggregate upstream, and fans the global RESULT back down.
	Uplink UplinkDialer
	// Logf, when non-nil, receives one line per round outcome and
	// connection error.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, publishes the gateway's counters into the
	// registry under hear_gateway_*: the StatsMap totals (rounds, clients,
	// traffic, pool behavior) plus per-phase fold timings. The registry
	// reads the server's own atomics at snapshot time, so the numbers are
	// identical to a STATS frame taken at the same moment.
	Metrics *metrics.Registry
}

func (c *Config) fill() error {
	if c.Group < 1 {
		return fmt.Errorf("aggsvc: group size %d < 1", c.Group)
	}
	if c.Elems < 0 {
		return fmt.Errorf("aggsvc: negative vector length %d", c.Elems)
	}
	if c.Quorum < 0 || c.Quorum > c.Group {
		return fmt.Errorf("aggsvc: quorum %d outside [0, group %d]", c.Quorum, c.Group)
	}
	if c.DegradedRounds && c.Quorum < 1 {
		return fmt.Errorf("aggsvc: DegradedRounds requires a quorum in [1, group]; got %d", c.Quorum)
	}
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = DefaultRoundTimeout
	}
	if c.MaxFrameBytes <= 0 {
		c.MaxFrameBytes = DefaultMaxFrameBytes
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = DefaultChunkBytes
	}
	if c.ChunkBytes+submitHeaderBytes+frameHeaderBytes > c.MaxFrameBytes {
		return fmt.Errorf("aggsvc: chunk %d B does not fit the %d B frame limit", c.ChunkBytes, c.MaxFrameBytes)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.PoolBlocks <= 0 {
		c.PoolBlocks = 4 * c.Workers
	}
	if c.Cohorts == 0 {
		c.Cohorts = 1
	}
	if c.Cohorts < 1 {
		return fmt.Errorf("aggsvc: cohort count %d < 1", c.Cohorts)
	}
	for host, idx := range c.CohortStatic {
		if idx < 0 || idx >= c.Cohorts {
			return fmt.Errorf("aggsvc: static cohort %d for %q outside [0, %d)", idx, host, c.Cohorts)
		}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// Pooled SUBMIT blocks are laid out so the chunk bytes land 8-byte
// aligned: 3 pad bytes, the 13-byte SUBMIT header, then the chunk at byte
// 16. Go heap slices are at least 8-byte aligned at their base, so the
// 64-bit fold kernels run on aligned words, folding each chunk in place
// where the read landed — no staging copy between the wire and the
// accumulator pass.
const (
	submitPad  = 3
	submitBase = submitPad + submitHeaderBytes // 16: chunk bytes start here
)

// foldTask is one pooled SUBMIT chunk awaiting aggregation. Tasks recycle
// through foldTasks and dispatch via the worker pool's SubmitTask, so the
// per-chunk fold path allocates nothing at steady state.
type foldTask struct {
	s     *Server
	r     *roundState
	lane  uint8
	off   int
	n     int
	block []byte // pooled; chunk bytes at [submitBase, submitBase+n)
	fold  inc.Fold
}

var foldTasks = sync.Pool{New: func() any { return new(foldTask) }}

// Run executes the fold on a pool worker and recycles the task.
func (t *foldTask) Run() {
	t.s.foldChunk(t)
	t.release()
}

// release drops the task's references and returns it to the pool.
func (t *foldTask) release() {
	*t = foldTask{}
	foldTasks.Put(t)
}

// Server is the aggregation gateway daemon. It is safe for concurrent use;
// one Server may serve several listeners.
type Server struct {
	cfg    Config
	rm     roundManager
	pool   *mempool.Pool
	fold   *enginepool.Pool
	phases *trace.SyncBreakdown

	closed    chan struct{}
	closeOnce sync.Once
	handlers  sync.WaitGroup
	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}

	connsAccepted   atomic.Uint64
	clientsJoined   atomic.Uint64
	roundsStarted   atomic.Uint64
	roundsCompleted atomic.Uint64
	roundsAborted   atomic.Uint64
	clientsEvicted  atomic.Uint64
	chunksFolded    atomic.Uint64
	bytesFolded     atomic.Uint64
	statsServed     atomic.Uint64
	framesRejected  atomic.Uint64
	activeRounds    atomic.Int64
	bytesIn         atomic.Uint64
	bytesOut        atomic.Uint64
	roundsRelayed   atomic.Uint64
	relayFailures   atomic.Uint64
	roundsDegraded  atomic.Uint64
	joinWake        *metrics.Histogram // nil without Config.Metrics
}

// NewServer validates cfg, starts the fold worker pool, and returns a
// server ready for Serve.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	pool, err := mempool.New(cfg.ChunkBytes+submitBase, cfg.PoolBlocks, cfg.PoolBlocks)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg,
		rm: roundManager{group: cfg.Group, quorum: cfg.Quorum, timeout: cfg.RoundTimeout,
			chunk: cfg.ChunkBytes, federated: cfg.Uplink != nil, degraded: cfg.DegradedRounds},
		pool:      pool,
		fold:      enginepool.New(cfg.Workers),
		phases:    trace.NewSyncBreakdown(),
		closed:    make(chan struct{}),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	s.registerMetrics(cfg.Metrics)
	return s, nil
}

// registerMetrics publishes the server's accounting as a snapshot-time
// source: counters keep their StatsMap names under a hear_gateway_ prefix
// with a _total suffix, point-in-time values become gauges, and the fold
// phases export as seconds/ops pairs keyed by phase.
func (s *Server) registerMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	// Seal epoch fixed → this participant's JOIN written, 10 µs … 100 ms: a
	// wake that waits on a timer instead of the event shows as a spike here.
	s.joinWake = r.Histogram("hear_gateway_join_wake_seconds", nil, metrics.DurationBuckets[:9])
	gauges := map[string]bool{"rounds_active": true, "pool_blocks": true, "cohorts": true, "lanes_inuse": true}
	r.RegisterSource(func(emit func(metrics.Sample)) {
		for k, v := range s.StatsMap() {
			if strings.HasPrefix(k, "phase_") {
				continue // exported structured below, not as raw ns blobs
			}
			if gauges[k] {
				emit(metrics.Sample{Name: "hear_gateway_" + k,
					Kind: metrics.KindGauge, Value: float64(v)})
				continue
			}
			emit(metrics.Sample{Name: "hear_gateway_" + k + "_total",
				Kind: metrics.KindCounter, Value: float64(v)})
		}
		snap := s.phases.Snapshot()
		for _, ph := range snap.Phases() {
			labels := metrics.Labels{"phase": ph}
			emit(metrics.Sample{Name: "hear_gateway_phase_seconds_total", Labels: labels,
				Kind: metrics.KindCounter, Value: snap.Sum(ph).Seconds()})
			emit(metrics.Sample{Name: "hear_gateway_phase_ops_total", Labels: labels,
				Kind: metrics.KindCounter, Value: float64(snap.Count(ph))})
		}
		// Degraded-round health, under stable names independent of the
		// hear_gateway_ StatsMap mapping (dashboards alert on these).
		emit(metrics.Sample{Name: "hear_rounds_degraded_total",
			Kind: metrics.KindCounter, Value: float64(s.roundsDegraded.Load())})
		emit(metrics.Sample{Name: "hear_participants_evicted_total",
			Kind: metrics.KindCounter, Value: float64(s.clientsEvicted.Load())})
	})
}

// ListenAndServe binds a TCP listener and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve accepts connections from l until Close (or a listener error) and
// handles each on its own goroutine.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return ErrServerClosed
			default:
				return err
			}
		}
		s.connsAccepted.Add(1)
		s.mu.Lock()
		// Registration and Close's connection sweep exclude each other
		// under mu; a conn accepted after the sweep must be dropped here
		// or no one would ever close it (and Close's handler-drain would
		// wait forever).
		select {
		case <-s.closed:
			s.mu.Unlock()
			conn.Close()
			continue
		default:
		}
		s.conns[conn] = struct{}{}
		s.handlers.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.handlers.Done()
			s.handle(conn)
		}()
	}
}

// Close stops the listeners, drops every connection (aborting in-flight
// rounds), and retires the worker pool.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.mu.Lock()
		for l := range s.listeners {
			l.Close()
		}
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		// Drains still-queued folds inline, so every accepted task retires
		// and no round's completion accounting is left dangling.
		s.fold.Close()
		// Join the connection handlers: dropped conns poke every blocked
		// read and in-flight rounds fail closed, so this terminates — and
		// once it returns, nothing touches cfg.Logf or the metrics
		// registry again.
		s.handlers.Wait()
	})
	return nil
}

// foldChunk folds one pooled chunk into its round accumulator under the
// chunk's stripe lock, returns the block, and retires the task. The fold
// reads the chunk in place where the wire read landed (8-byte aligned at
// submitBase) — the ingress path never stages a copy.
func (s *Server) foldChunk(t *foldTask) {
	// A round that aborted while this task sat in the worker queue must not
	// be folded into: an aborted round's outcome only waits for tasks to
	// retire, not to execute. Drop the chunk, keep the obligations (block
	// back to the pool, task retired). The fold below runs without r.mu, so
	// the round's lanes must not be recycled while this task is
	// outstanding; roundState.releaseLocked waits for r.tasks == 0.
	if t.r.aborted() {
		s.pool.Put(t.block)
		t.r.taskDone()
		return
	}
	tm := s.phases.StartTimer(PhaseFold)
	acc := t.r.data
	f := t.fold
	if t.lane == LaneTag {
		acc = t.r.tags
	}
	m := t.r.stripe(t.off)
	m.Lock()
	f(acc[t.off:t.off+t.n], t.block[submitBase:submitBase+t.n])
	m.Unlock()
	tm.Stop()
	s.chunksFolded.Add(1)
	s.bytesFolded.Add(uint64(t.n))
	s.pool.Put(t.block)
	t.r.taskDone()
}

// assignCohort maps a connection to its cohort: the CohortBy override if
// set, then a static host pin, then an FNV-1a hash of the remote host —
// so a client's cohort is stable across reconnects and a fleet spreads
// evenly without coordination.
func (s *Server) assignCohort(conn net.Conn) int {
	if s.cfg.CohortBy != nil {
		if c := s.cfg.CohortBy(conn.RemoteAddr()); c >= 0 && c < s.cfg.Cohorts {
			return c
		}
		return 0
	}
	if s.cfg.Cohorts == 1 {
		return 0
	}
	addr := conn.RemoteAddr().String()
	host := addr
	if h, _, err := net.SplitHostPort(addr); err == nil {
		host = h
	}
	if c, ok := s.cfg.CohortStatic[host]; ok {
		return c
	}
	h := fnv.New32a()
	h.Write([]byte(host))
	return int(h.Sum32() % uint32(s.cfg.Cohorts))
}

// handle runs one connection: any number of HELLO→round cycles plus STATS
// queries, until the peer drops or violates the protocol.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	for {
		t, plen, err := readFrameHeader(conn, s.cfg.MaxFrameBytes)
		if err != nil {
			var tooBig *ErrFrameTooLarge
			if errors.As(err, &tooBig) {
				s.framesRejected.Add(1)
				s.writeAbort(conn, &AbortError{Code: AbortOversize, Msg: tooBig.Error()})
			}
			return
		}
		// The payload is consumed by the branch below (or the connection
		// dies); account the whole frame here where its size is known.
		s.bytesIn.Add(uint64(frameHeaderBytes + plen))
		switch t {
		case FrameStatsReq:
			if err := discard(conn, plen); err != nil {
				return
			}
			s.statsServed.Add(1)
			if err := s.writeStats(conn); err != nil {
				return
			}
		case FrameHello:
			if plen != helloPayloadBytes {
				s.writeAbort(conn, &AbortError{Code: AbortProtocol, Msg: "malformed HELLO"})
				return
			}
			var p [helloPayloadBytes]byte
			if _, err := io.ReadFull(conn, p[:]); err != nil {
				return
			}
			h, err := decodeHello(p[:])
			if err != nil {
				s.writeAbort(conn, &AbortError{Code: AbortProtocol, Msg: err.Error()})
				return
			}
			if !s.serveRound(conn, h, s.assignCohort(conn)) {
				return
			}
		default:
			s.writeAbort(conn, &AbortError{Code: AbortProtocol, Msg: "expected HELLO or STATSREQ, got " + t.String()})
			return
		}
	}
}

// admit validates a HELLO against this gateway's configuration.
func (s *Server) admit(h helloFrame) *AbortError {
	if h.Version != ProtocolVersion {
		return &AbortError{Code: AbortVersion,
			Msg: fmt.Sprintf("client speaks protocol v%d, server v%d", h.Version, ProtocolVersion)}
	}
	folds, ok := laneFolds[h.Scheme]
	if !ok {
		return &AbortError{Code: AbortMismatch, Msg: fmt.Sprintf("unknown scheme %d", h.Scheme)}
	}
	if h.tagged() && folds.tag == nil {
		return &AbortError{Code: AbortMismatch,
			Msg: fmt.Sprintf("scheme %d does not support a tag lane", h.Scheme)}
	}
	if h.Elems <= 0 {
		return &AbortError{Code: AbortProtocol, Msg: fmt.Sprintf("non-positive vector length %d", h.Elems)}
	}
	if h.Epoch == math.MaxUint64 {
		// JOIN names max(HELLO epochs)+1, which would wrap to 0 — and 0 tells
		// a sealer "advance exactly once".
		return &AbortError{Code: AbortProtocol, Msg: "HELLO epoch would wrap the seal epoch"}
	}
	if s.cfg.Elems > 0 && h.Elems != s.cfg.Elems {
		return &AbortError{Code: AbortMismatch,
			Msg: fmt.Sprintf("gateway aggregates %d-element vectors, client offered %d", s.cfg.Elems, h.Elems)}
	}
	lanes := 1
	if h.tagged() {
		lanes = 2
	}
	if resultBytes := frameHeaderBytes + 16 + h.Elems*8*lanes; resultBytes > s.cfg.MaxFrameBytes {
		return &AbortError{Code: AbortMismatch,
			Msg: fmt.Sprintf("RESULT frame (%d B) would exceed the %d B frame limit", resultBytes, s.cfg.MaxFrameBytes)}
	}
	return nil
}

// serveRound drives one admitted client through a round in its cohort. It
// reports whether the connection is still healthy enough to serve another
// HELLO.
func (s *Server) serveRound(conn net.Conn, h helloFrame, cohort int) bool {
	if aerr := s.admit(h); aerr != nil {
		s.writeAbort(conn, aerr)
		return false
	}
	folds := laneFolds[h.Scheme]
	r, part, created, aerr := s.rm.join(conn, roundParams{scheme: h.Scheme, elems: h.Elems, tagged: h.tagged()},
		h.Epoch, cohort, partMeta{rank: h.Rank, degradedOK: h.degradedOK()})
	if aerr != nil {
		s.writeAbort(conn, aerr)
		return false
	}
	if created {
		s.roundsStarted.Add(1)
		s.activeRounds.Add(1)
		if s.cfg.Uplink != nil {
			// Counted with the handlers, so Close also waits for the cascade
			// to give up its claim on the round's lanes.
			s.handlers.Add(1)
			go func() {
				defer s.handlers.Done()
				s.runCascade(r)
			}()
		}
	}
	s.clientsJoined.Add(1)

	// JOIN is an admission ticket into a *full* round: it is only written
	// once the membership has sealed, and the client seals (advancing its
	// collective key) only after reading it. A participant dying while the
	// round is still filling therefore frees its slot without anyone
	// having burned a key epoch; only post-fill losses abort globally, and
	// there the whole group re-seals in lockstep.
	if !s.awaitFull(conn, r, part) {
		return false
	}
	if r.aborted() {
		// Died before filling (deadline). The abort is retryable and the
		// client sealed nothing, so the conn may serve another HELLO.
		s.finishRound(conn, r, part)
		return true
	}
	epoch, fixedAt := r.sealEpoch()
	join := joinFrame{
		Round:      r.id,
		Slot:       part.slot,
		Group:      r.group,
		DeadlineMS: remainingMS(time.Until(r.deadline)),
		ChunkBytes: r.chunk,
		Epoch:      epoch,
	}
	if err := s.writeJoin(conn, join); err != nil {
		r.abort(AbortPeerLost, "slot %d unreachable at JOIN: %v", part.slot, err)
		s.finishRound(conn, r, part)
		return false
	}
	s.joinWake.Observe(time.Since(fixedAt).Seconds())

	healthy := s.receiveLanes(conn, r, part, folds)
	s.finishRound(conn, r, part)
	if r.isEvicted(part) {
		// Straggler under a quorum policy: it got its ABORT, now it loses
		// the connection so the next round forms from live clients.
		s.clientsEvicted.Add(1)
		return false
	}
	// After an abort the framing may be mid-stream; a healthy client that
	// wants another round re-HELLOs on the same connection and the handler
	// resynchronizes or rejects — either way the conn outlives the round.
	return healthy
}

// isTimeout reports whether err is a read-deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// awaitFull parks an admitted participant until its round's seal epoch is
// fixed (at fill for flat rounds, after the upstream JOIN for federated
// ones) or the round ends. A legal client sends nothing between HELLO and
// JOIN, so the wait is one read with no deadline: it returns only for a
// poke (roundState.pokeLocked — the wake), for data, which is a protocol
// violation, or for a dead connection, which frees the slot — a pre-fill
// death must not poison the round, because nothing has been sealed against
// it yet. It reports whether the handler should continue into the round
// (joinable or aborted); false means this connection is done for.
func (s *Server) awaitFull(conn net.Conn, r *roundState, part *participant) bool {
	var probe [1]byte
	for !r.woken(part) {
		n, err := conn.Read(probe[:])
		switch {
		case n > 0:
			// The client may write only after JOIN, which has not been
			// sent. Cut it loose; the round survives if its membership was
			// still open, and fails closed if it had just sealed (the
			// stream is unusable either way).
			if left, empty := r.leave(part); left {
				s.writeAbort(conn, &AbortError{Round: r.id, Code: AbortProtocol, Msg: "data before JOIN"})
				if empty {
					r.abort(AbortPeerLost, "round %d lost every participant before filling", r.id)
					s.finishRound(conn, r, part)
				}
				return false
			}
			r.abort(AbortProtocol, "slot %d sent data before JOIN", r.slotOf(part))
			s.finishRound(conn, r, part)
			return false
		case err == nil || isTimeout(err):
			// Poked: woken says by what.
		default:
			// The connection died. With the membership still open the slot
			// is freed so the round fills from live clients; if the round
			// sealed in the meantime it cannot proceed without this
			// participant — fail it closed for everyone.
			if left, empty := r.leave(part); left {
				if empty {
					r.abort(AbortPeerLost, "round %d lost every participant before filling", r.id)
					s.finishRound(conn, r, part)
				}
				return false
			}
			if !r.aborted() {
				r.abort(AbortPeerLost, "slot %d lost between fill and JOIN: %v", r.slotOf(part), err)
			}
			s.finishRound(conn, r, part)
			return false
		}
	}
	return true
}

// receiveLanes reads the participant's SUBMIT stream, folding chunks
// through the worker pool, until the participant has delivered every lane
// byte or the round fails. It reports whether the connection survived.
// The loop body is the server's ingress hot path and allocates nothing at
// steady state: frames land in pre-headered pooled blocks (chunk bytes
// 8-byte aligned at submitBase), dispatch rides pooled foldTasks, and
// every fmt call sits on a failure branch (BenchmarkWirePath pins this at
// 0 allocs/op).
func (s *Server) receiveLanes(conn net.Conn, r *roundState, part *participant, folds struct{ data, tag inc.Fold }) bool {
	ls := r.laneSize()
	degraded := r.degradedMode
	if degraded {
		defer s.putStages(part)
	}
	maxPayload := s.cfg.ChunkBytes + submitHeaderBytes
	for !part.submitted {
		t, plen, err := readFrameHeader(conn, s.cfg.MaxFrameBytes)
		if err != nil {
			if r.aborted() {
				return true // interrupted by the round's own abort poke
			}
			if r.isEvicted(part) {
				// Evicted at the deadline of a *degrading* round: the poke
				// interrupted this read, but the round itself is completing
				// over the survivors — it must not be aborted for a
				// straggler's account. finishRound delivers the eviction.
				return true
			}
			var tooBig *ErrFrameTooLarge
			if errors.As(err, &tooBig) {
				s.framesRejected.Add(1)
				r.abort(AbortOversize, "slot %d: %v", part.slot, err)
				return true // conn itself still healthy; the round is not
			}
			if degraded && r.markLost(part) {
				// A degraded round outlives a mid-submit disconnect: this
				// participant is cut, its stage discarded, and the deadline
				// resolves the round over whoever delivers.
				return false
			}
			r.abort(AbortPeerLost, "slot %d disconnected mid-submit: %v", part.slot, err)
			return false
		}
		s.bytesIn.Add(uint64(frameHeaderBytes + plen))
		if t == FrameSurvivors {
			// A leaf gateway declaring which ranks its submission covers
			// (federation). Read, validate, and attach to the participant
			// before its delivery completes.
			if !s.receiveSurvivors(conn, r, part, plen) {
				return true
			}
			continue
		}
		if t != FrameSubmit {
			r.abort(AbortProtocol, "slot %d sent %s during submission", part.slot, t)
			return true
		}
		if plen < submitHeaderBytes+1 || plen > maxPayload {
			r.abort(AbortProtocol, "slot %d chunk payload %d B outside (%d, %d]",
				part.slot, plen, submitHeaderBytes, maxPayload)
			return true
		}
		tm := s.phases.StartTimer(PhaseRecv)
		block := s.pool.GetWait()
		_, err = io.ReadFull(conn, block[submitPad:submitPad+plen])
		tm.Stop()
		if err != nil {
			s.pool.Put(block)
			if r.aborted() {
				return true
			}
			if r.isEvicted(part) {
				return true // poked out of a degrading round; see above
			}
			if degraded && r.markLost(part) {
				return false // see the header-read path above
			}
			r.abort(AbortPeerLost, "slot %d disconnected mid-chunk: %v", part.slot, err)
			return false
		}
		hd, err := decodeSubmitHeader(block[submitPad : submitPad+plen])
		n := plen - submitHeaderBytes
		bad := ""
		switch {
		case err != nil:
			bad = err.Error()
		case hd.Round != r.id:
			bad = fmt.Sprintf("chunk for round %d during round %d", hd.Round, r.id)
		case hd.Lane != LaneData && hd.Lane != LaneTag:
			bad = fmt.Sprintf("unknown lane %d", hd.Lane)
		case hd.Lane == LaneTag && !r.params.tagged:
			bad = "tag chunk in an untagged round"
		case hd.Offset+n > ls:
			bad = fmt.Sprintf("chunk [%d, %d) overruns the %d B lane", hd.Offset, hd.Offset+n, ls)
		case hd.Lane == LaneData && hd.Offset != part.dataGot:
			bad = fmt.Sprintf("data chunk at %d, expected %d (in-order)", hd.Offset, part.dataGot)
		case hd.Lane == LaneTag && hd.Offset != part.tagGot:
			bad = fmt.Sprintf("tag chunk at %d, expected %d (in-order)", hd.Offset, part.tagGot)
		}
		if bad != "" {
			s.pool.Put(block)
			r.abort(AbortProtocol, "slot %d: %s", part.slot, bad)
			return true
		}
		f := folds.data
		if hd.Lane == LaneTag {
			part.tagGot += n
			f = folds.tag
		} else {
			part.dataGot += n
		}
		if degraded {
			// Stage privately: the chunk reaches the shared accumulators
			// only if this participant delivers everything before the
			// deadline. An eviction mid-submit then simply discards the
			// stage — the in-place fold could never have un-folded it.
			lane := &part.lane
			if hd.Lane == LaneTag {
				lane = &part.tagLane
			}
			if *lane == nil {
				// No reset needed: a stage is folded only once every
				// byte of it has arrived in order.
				*lane = s.rm.lanes.get(ls)
			}
			copy((*lane)[hd.Offset:hd.Offset+n], block[submitBase:submitBase+n])
			s.pool.Put(block)
		} else if r.taskAdded() {
			t := foldTasks.Get().(*foldTask)
			*t = foldTask{s: s, r: r, lane: hd.Lane, off: hd.Offset, n: n, block: block, fold: f}
			if !s.fold.SubmitTask(t) {
				// Server closing: retire the task ourselves so the round's
				// completion accounting stays balanced.
				s.pool.Put(block)
				r.taskDone()
				t.release()
			}
		} else {
			s.pool.Put(block) // round already over; drop the late chunk
		}
		if part.dataGot == ls && (!r.params.tagged || part.tagGot == ls) {
			if !degraded {
				r.submitted(part)
			} else if r.markDelivered(part) {
				s.foldStaged(r, part, folds)
				r.submitted(part)
			} else {
				// Round over or participant evicted between the last byte
				// and delivery: the stage goes back unfolded.
				return true
			}
		}
	}
	return true
}

// receiveSurvivors consumes a SURVIVORS frame during submission: a
// federation leaf naming the client ranks its (possibly degraded) cohort
// fold covers. It reports whether the submission loop should continue;
// false means the round was aborted here.
func (s *Server) receiveSurvivors(conn net.Conn, r *roundState, part *participant, plen int) bool {
	if plen < survivorsHeadBytes || plen > s.cfg.MaxFrameBytes-frameHeaderBytes {
		r.abort(AbortProtocol, "slot %d: malformed SURVIVORS (%d B)", part.slot, plen)
		return false
	}
	buf := make([]byte, plen)
	if _, err := io.ReadFull(conn, buf); err != nil {
		if !r.aborted() && !r.isEvicted(part) && !(r.degradedMode && r.markLost(part)) {
			r.abort(AbortPeerLost, "slot %d disconnected mid-SURVIVORS: %v", part.slot, err)
		}
		return false
	}
	sv, err := decodeSurvivors(buf)
	if err != nil {
		r.abort(AbortProtocol, "slot %d: %v", part.slot, err)
		return false
	}
	if sv.Round != r.id {
		r.abort(AbortProtocol, "slot %d: SURVIVORS for round %d during round %d", part.slot, sv.Round, r.id)
		return false
	}
	if !sv.Complete && !r.degradedMode {
		// A partial relay from below cannot be expressed without degraded
		// rounds enabled on this tier: the RESULT would silently misdescribe
		// a partial aggregate as complete.
		r.abort(AbortStraggler, "slot %d relayed a partial fold but degraded rounds are disabled here", part.slot)
		return false
	}
	r.mu.Lock()
	part.covers = sv.Ranks
	part.coversOK = sv.Complete
	r.mu.Unlock()
	return true
}

// foldStaged folds a delivered participant's staged lanes into the shared
// accumulators under the stripe locks, with the same accounting as the
// worker-pool path. Degraded rounds fold inline on the handler goroutine
// instead of dispatching to the pool: pool tasks cannot be recalled per
// participant, and eviction must guarantee a straggler's bytes never reach
// the accumulator.
func (s *Server) foldStaged(r *roundState, part *participant, folds struct{ data, tag inc.Fold }) {
	tm := s.phases.StartTimer(PhaseFold)
	foldLane := func(acc, lane []byte, f inc.Fold) {
		for off := 0; off < len(lane); off += r.chunk {
			n := len(lane) - off
			if n > r.chunk {
				n = r.chunk
			}
			m := r.stripe(off)
			m.Lock()
			f(acc[off:off+n], lane[off:off+n])
			m.Unlock()
			s.chunksFolded.Add(1)
			s.bytesFolded.Add(uint64(n))
		}
	}
	foldLane(r.data, part.lane, folds.data)
	if r.params.tagged {
		foldLane(r.tags, part.tagLane, folds.tag)
	}
	tm.Stop()
}

// putStages returns a degraded participant's stage buffers to the lane
// free list. Only the participant's own handler goroutine touches its
// stages — it fills them, folds them and, on its way out of receiveLanes,
// returns them here — so they need no lock; the deadline and loss paths
// only mark the participant evicted.
func (s *Server) putStages(part *participant) {
	if part.lane != nil {
		s.rm.lanes.put(part.lane)
		part.lane = nil
	}
	if part.tagLane != nil {
		s.rm.lanes.put(part.tagLane)
		part.tagLane = nil
	}
}

// finishRound waits for the round outcome — including, for federated
// rounds, the upstream relay stage — and delivers RESULT or ABORT to this
// participant. It reports whether the round aborted. Once the write has
// returned, the participant's claim on the round's lanes is dropped: the
// accumulators are recycled only after every fan-out write is done with
// them.
func (s *Server) finishRound(conn net.Conn, r *roundState, part *participant) bool {
	defer r.drop(part)
	waitTm := s.phases.StartTimer(PhaseWait)
	aerr := r.outcome()
	if aerr == nil && r.federated {
		// The local fold is a partial aggregate; the round's RESULT is
		// whatever the upstream tier reduces it into.
		aerr = r.relayOutcome()
	}
	waitTm.Stop()
	r.unpark(part)
	var surv []uint32
	if aerr == nil {
		surv = r.resultSurvivors()
	}
	r.endOnce.Do(func() {
		s.activeRounds.Add(-1)
		if aerr != nil {
			s.roundsAborted.Add(1)
			s.cfg.Logf("aggsvc: round %d aborted: %s: %s", r.id, aerr.Code, aerr.Msg)
		} else if surv != nil {
			s.roundsCompleted.Add(1)
			s.roundsDegraded.Add(1)
			s.cfg.Logf("aggsvc: round %d complete DEGRADED (%d survivor ranks, %d B lanes)",
				r.id, len(surv), r.laneSize())
		} else {
			s.roundsCompleted.Add(1)
			s.cfg.Logf("aggsvc: round %d complete (%d × %d B)", r.id, r.group, r.laneSize())
		}
	})
	if aerr != nil {
		s.writeAbort(conn, aerr)
		return true
	}
	if r.isEvicted(part) {
		// A straggler of a round that *completed* without it (degraded):
		// the round outcome is nil, but this participant's is the eviction.
		ev := r.evictionErr()
		if ev == nil {
			ev = &AbortError{Round: r.id, Code: AbortStraggler, Msg: "evicted at the deadline — retry"}
		}
		s.writeAbort(conn, ev)
		return true
	}
	if surv != nil && !part.degraded {
		// This survivor cannot open a partial aggregate (its HELLO lacked
		// FlagDegradedOK); a RESULT it would silently mis-open must
		// never leave the gateway. Retryable: the next round may complete
		// fully.
		s.writeAbort(conn, &AbortError{Round: r.id, Code: AbortStraggler,
			Msg: fmt.Sprintf("round %d degraded to %d survivor ranks; this client cannot open a partial aggregate — retry", r.id, len(surv))})
		return true
	}
	// Fan-out is copy-free: the round's lane prefixes are encoded exactly
	// once (resultVectors), and every participant's RESULT is one vectored
	// write referencing the same immutable accumulators — per-participant
	// cost is the 5-byte frame header plus iovec setup. A degraded RESULT
	// appends the shared survivor-set trailer as a fifth vector.
	sendTm := s.phases.StartTimer(PhaseSend)
	pre, data, tagN, tags, st := r.resultVectors()
	err := s.writeWithDeadline(conn, FrameResult, pre, data, tagN, tags, st)
	sendTm.Stop()
	if err != nil {
		s.cfg.Logf("aggsvc: round %d: result undeliverable: %v", r.id, err)
	}
	return false
}

func (s *Server) writeWithDeadline(conn net.Conn, t FrameType, payload ...[]byte) error {
	b := wireBufs.Get().(*wireBuf)
	err := s.writeBufWithDeadline(b, conn, t, payload...)
	wireBufs.Put(b)
	return err
}

func (s *Server) writeBufWithDeadline(b *wireBuf, conn net.Conn, t FrameType, payload ...[]byte) error {
	conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
	defer conn.SetWriteDeadline(time.Time{})
	n := frameHeaderBytes
	for _, p := range payload {
		n += len(p)
	}
	s.bytesOut.Add(uint64(n))
	return b.writeFrame(conn, t, payload...)
}

// writeJoin emits a JOIN, staging the fixed payload in the pooled wireBuf
// so admission costs no per-participant allocation.
func (s *Server) writeJoin(conn net.Conn, j joinFrame) error {
	b := wireBufs.Get().(*wireBuf)
	putJoin(b.fixed[:joinPayloadBytes], j)
	err := s.writeBufWithDeadline(b, conn, FrameJoin, b.fixed[:joinPayloadBytes])
	wireBufs.Put(b)
	return err
}

func (s *Server) writeAbort(conn net.Conn, e *AbortError) {
	if err := s.writeWithDeadline(conn, FrameAbort, encodeAbort(e)); err != nil {
		s.cfg.Logf("aggsvc: abort undeliverable: %v", err)
	}
}

// StatsMap snapshots the gateway's counters: round and traffic totals,
// memory-pool behavior, lanes in use (lanes_inuse: accumulators and stages
// taken from the lane free list and not yet returned), and per-phase
// timings (phase_ns_*/phase_n_* pairs from internal/trace).
func (s *Server) StatsMap() map[string]uint64 {
	hits, misses, allocated := s.pool.Stats()
	m := map[string]uint64{
		"conns_accepted":   s.connsAccepted.Load(),
		"clients_joined":   s.clientsJoined.Load(),
		"rounds_started":   s.roundsStarted.Load(),
		"rounds_completed": s.roundsCompleted.Load(),
		"rounds_aborted":   s.roundsAborted.Load(),
		"clients_evicted":  s.clientsEvicted.Load(),
		"rounds_active":    uint64(s.activeRounds.Load()),
		"chunks_folded":    s.chunksFolded.Load(),
		"bytes_folded":     s.bytesFolded.Load(),
		"stats_served":     s.statsServed.Load(),
		"frames_rejected":  s.framesRejected.Load(),
		"bytes_in":         s.bytesIn.Load(),
		"bytes_out":        s.bytesOut.Load(),
		"cohorts":          uint64(s.cfg.Cohorts),
		"rounds_relayed":   s.roundsRelayed.Load(),
		"relay_failures":   s.relayFailures.Load(),
		"rounds_degraded":  s.roundsDegraded.Load(),
		"pool_hits":        hits,
		"pool_misses":      misses,
		"pool_blocks":      uint64(allocated),
		"pool_waits":       s.pool.Waits(),
		"lanes_inuse":      uint64(s.rm.lanes.inUse.Load()),
	}
	snap := s.phases.Snapshot()
	for _, ph := range snap.Phases() {
		m["phase_ns_"+ph] = uint64(snap.Sum(ph).Nanoseconds())
		m["phase_n_"+ph] = uint64(snap.Count(ph))
	}
	return m
}

func (s *Server) writeStats(conn net.Conn) error {
	m := s.StatsMap()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return s.writeWithDeadline(conn, FrameStats, encodeStats(m, keys))
}

func discard(r io.Reader, n int) error {
	_, err := io.CopyN(io.Discard, r, int64(n))
	return err
}
