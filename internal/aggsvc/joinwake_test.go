package aggsvc

import (
	"net"
	"sync"
	"testing"
	"time"

	"hear/internal/metrics"
)

// This file pins the round lifecycle's one wake primitive
// (roundState.pokeLocked): a handler waiting for JOIN blocks in a read with
// no deadline and is woken by the event, never by a timer, and every check
// that read makes — data before JOIN, a pre-fill death, a post-seal loss —
// still holds.

// deadlineRecorder is a listener whose accepted connections record every
// read deadline the server arms on them.
type deadlineRecorder struct {
	net.Listener
	mu    sync.Mutex
	armed []time.Time
}

func (l *deadlineRecorder) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &recordedConn{Conn: c, l: l}, nil
}

type recordedConn struct {
	net.Conn
	l *deadlineRecorder
}

func (c *recordedConn) SetReadDeadline(t time.Time) error {
	c.l.mu.Lock()
	c.l.armed = append(c.l.armed, t)
	c.l.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

// runRounds drives clients through rounds back-to-back aggregations each,
// every client SUBMITting the instant its JOIN arrives, and checks every
// aggregate. Errors are reported with t.Error from the client goroutines.
func runRounds(t *testing.T, clients []*Client, rounds, elems int) {
	t.Helper()
	in := make([]int64, elems)
	for j := range in {
		in[j] = int64(j + 1)
	}
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			out := make([]int64, elems)
			for r := 0; r < rounds; r++ {
				if _, err := c.Aggregate(in, out); err != nil {
					t.Errorf("client %d round %d: %v", i, r, err)
					return
				}
				for j := range out {
					if out[j] != int64(len(clients))*in[j] {
						t.Errorf("client %d round %d elem %d = %d, want %d", i, r, j, out[j], int64(len(clients))*in[j])
						return
					}
				}
			}
		}(i, c)
	}
	wg.Wait()
}

// TestNoPollBeforeJoin is the structural no-poll check: across 4 clients ×
// 50 rounds the server never arms a read deadline in the future on any
// connection — so in particular none between a participant's HELLO and its
// JOIN, where the 20 ms probe used to sit — and every JOIN wait is ended by
// a poke. The only deadlines the round lifecycle knows are the poke (the
// distant past) and its clear (zero).
func TestNoPollBeforeJoin(t *testing.T) {
	const group, rounds, elems = 4, 50, 32
	start := time.Now()
	s, err := NewServer(Config{Group: group})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeListener()
	rec := &deadlineRecorder{Listener: pl}
	go s.Serve(rec)
	t.Cleanup(func() { s.Close() })

	clients := make([]*Client, group)
	for i := range clients {
		clients[i] = dialPipe(t, pl, ClientOptions{})
	}
	runRounds(t, clients, rounds, elems)

	if got := s.roundsCompleted.Load(); got != rounds {
		t.Errorf("rounds_completed = %d, want %d", got, rounds)
	}
	if got := s.roundsAborted.Load(); got != 0 {
		t.Errorf("rounds_aborted = %d, want 0", got)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	pokes := 0
	for _, d := range rec.armed {
		switch {
		case d.IsZero():
		case d.Before(start):
			pokes++
		default:
			t.Fatalf("read deadline armed at %v (test began %v): a timer is back on the round's happy path", d, start)
		}
	}
	if pokes != rounds*group {
		t.Errorf("%d pokes, want %d (one fill wake per participant per round, nothing else)", pokes, rounds*group)
	}
}

// echoUplink stands in for the upstream tier of a federated round: it names
// the seal epoch a flat round would have picked and leaves the cohort's fold
// in place as the global aggregate, so the leaf's own lifecycle — fixEpoch arriving from the
// runCascade goroutine while handlers are entering awaitFull — runs without
// a root. (The real two-tier race is federation's TestFederationJoinWakeRace.)
type echoUplink struct{}

func (echoUplink) Negotiate(_ uint8, _ int, _ bool, cohortEpoch uint64) (uint64, error) {
	return cohortEpoch + 1, nil
}

func (echoUplink) Relay(_, _ []byte, _ []uint32, _ bool) ([]uint32, error) {
	return nil, nil
}

func (echoUplink) Close() error { return nil }

// TestJoinWakeRace hammers the park/poke/un-park handshake: 4 clients that
// SUBMIT the instant JOIN arrives, 500 back-to-back rounds, so every fill
// wake races the last joiner's own entry into awaitFull and every
// finishRound clear races the next round's HELLO. A lost wake hangs a round
// into its deadline abort; a stale poke kills a healthy connection's next
// read. Neither may happen once, and every pooled block must be home.
func TestJoinWakeRace(t *testing.T) {
	const group, rounds, elems, poolBlocks = 4, 500, 64, 8
	for _, tc := range []struct {
		name    string
		tcp     bool
		cascade bool
	}{
		{"pipe/flat", false, false},
		{"tcp/flat", true, false},
		{"pipe/cascade", false, true},
		{"tcp/cascade", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Group: group, ChunkBytes: 128, PoolBlocks: poolBlocks}
			if tc.cascade {
				cfg.Uplink = func(int) (UplinkRound, error) { return echoUplink{}, nil }
			}
			s, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var dial func() (net.Conn, error)
			if tc.tcp {
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go s.Serve(l)
				dial = func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) }
			} else {
				l := NewPipeListener()
				go s.Serve(l)
				dial = l.Dial
			}
			clients := make([]*Client, group)
			for i := range clients {
				conn, err := dial()
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				clients[i] = NewClient(conn, plainSealer{}, ClientOptions{Timeout: 30 * time.Second})
			}
			runRounds(t, clients, rounds, elems)

			if got := s.roundsCompleted.Load(); got != rounds {
				t.Errorf("rounds_completed = %d, want %d", got, rounds)
			}
			if got := s.roundsAborted.Load(); got != 0 {
				t.Errorf("rounds_aborted = %d, want 0", got)
			}
			if got := s.clientsEvicted.Load(); got != 0 {
				t.Errorf("clients_evicted = %d, want 0", got)
			}
			// A round completes only after its last fold task returned its
			// block, so with every RESULT read the capped pool must hand
			// out all of its blocks again: none is still in use.
			for i := 0; i < poolBlocks; i++ {
				b, err := s.pool.Get()
				if err != nil {
					t.Fatalf("mempool: %d of %d blocks still in use after the last round", poolBlocks-i, poolBlocks)
				}
				defer s.pool.Put(b)
			}
		})
	}
}

// gatedUplink holds a federated round between fill and JOIN — the window in
// which the membership has sealed but awaitFull is still parked — until the
// test releases it.
type gatedUplink struct {
	echoUplink
	entered chan struct{} // closed when Negotiate is reached: the round has filled
	release chan struct{}
}

func (u *gatedUplink) Negotiate(_ uint8, _ int, _ bool, cohortEpoch uint64) (uint64, error) {
	close(u.entered)
	<-u.release
	return cohortEpoch + 1, nil
}

// waitParts blocks until the cohort's open round holds exactly n
// participants. Admission and pre-fill departure both happen on the
// handler goroutine some time after the test's write or close returns.
func waitParts(t *testing.T, s *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.rm.mu.Lock()
		r := s.rm.open[0]
		s.rm.mu.Unlock()
		got := 0
		if r != nil {
			r.mu.Lock()
			got = len(r.parts)
			r.mu.Unlock()
		}
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("open round holds %d participants, want %d", got, n)
		}
	}
}

// finishPlainRound reads JOIN on each conn, submits the whole (zero) lane as
// one chunk and reads the RESULT frame, returning the slots the JOINs
// assigned.
func finishPlainRound(t *testing.T, conns []net.Conn, elems int) []int {
	t.Helper()
	lane, _, _ := plainSealer{}.Seal(make([]int64, elems), 0)
	slots := make([]int, len(conns))
	for i, c := range conns {
		join := readJoin(t, c)
		if join.Group != len(conns) {
			t.Fatalf("conn %d: JOIN group %d, want %d", i, join.Group, len(conns))
		}
		slots[i] = join.Slot
		submitChunk(t, c, join.Round, 0, lane)
	}
	for i, c := range conns {
		if ft, _, err := readFrame(c, DefaultMaxFrameBytes); err != nil || ft != FrameResult {
			t.Fatalf("conn %d: got %s, %v; want RESULT", i, ft, err)
		}
	}
	return slots
}

// TestJoinWakeDataBeforeJoin: a client that writes before its JOIN is cut
// with AbortProtocol. While the membership is open that costs only its own
// slot; once the round has sealed the stream cannot be trusted and the
// whole round fails closed.
func TestJoinWakeDataBeforeJoin(t *testing.T) {
	const elems = 4
	t.Run("pre-fill", func(t *testing.T) {
		s, l := startPipeServer(t, Config{Group: 3})
		a := helloConn(t, l, elems)
		defer a.Close()
		waitParts(t, s, 1)
		bad := helloConn(t, l, elems)
		defer bad.Close()
		waitParts(t, s, 2)
		go bad.Write([]byte{0}) // net.Pipe: returns once the probe read takes it
		if e := readAbort(t, bad); e.Code != AbortProtocol {
			t.Fatalf("early writer got %s, want %s", e.Code, AbortProtocol)
		}
		waitParts(t, s, 1)
		b, c := helloConn(t, l, elems), helloConn(t, l, elems)
		defer b.Close()
		defer c.Close()
		finishPlainRound(t, []net.Conn{a, b, c}, elems)
		if got := s.roundsAborted.Load(); got != 0 {
			t.Errorf("rounds_aborted = %d, want 0: an open round outlives an early writer", got)
		}
	})
	t.Run("sealed", func(t *testing.T) {
		u := &gatedUplink{entered: make(chan struct{}), release: make(chan struct{})}
		defer close(u.release)
		_, l := startPipeServer(t, Config{Group: 2, Uplink: func(int) (UplinkRound, error) { return u, nil }})
		a, bad := helloConn(t, l, elems), helloConn(t, l, elems)
		defer a.Close()
		defer bad.Close()
		<-u.entered
		go bad.Write([]byte{0})
		if e := readAbort(t, a); e.Code != AbortProtocol {
			t.Fatalf("peer of a post-seal early writer got %s, want %s", e.Code, AbortProtocol)
		}
	})
}

// TestJoinWakePreFillEOF: a participant that dies while the round is still
// filling frees its slot — nothing was sealed against it — and the round
// fills from a replacement with the slots renumbered.
func TestJoinWakePreFillEOF(t *testing.T) {
	const elems = 4
	s, l := startPipeServer(t, Config{Group: 3})
	a := helloConn(t, l, elems)
	defer a.Close()
	waitParts(t, s, 1)
	dead := helloConn(t, l, elems)
	waitParts(t, s, 2)
	dead.Close()
	waitParts(t, s, 1)
	b := helloConn(t, l, elems)
	defer b.Close()
	waitParts(t, s, 2)
	c := helloConn(t, l, elems)
	defer c.Close()
	slots := finishPlainRound(t, []net.Conn{a, b, c}, elems)
	for i, slot := range slots {
		if slot != i {
			t.Errorf("slots %v, want [0 1 2]: the freed slot was not reused", slots)
			break
		}
	}
	if got := s.roundsAborted.Load(); got != 0 {
		t.Errorf("rounds_aborted = %d, want 0", got)
	}
}

// TestJoinWakePostSealLoss: once the membership has sealed the round cannot
// proceed without every participant, so a death between fill and JOIN fails
// it closed for the rest with AbortPeerLost — and the parked survivor is
// woken to hear it, not left to the round deadline.
func TestJoinWakePostSealLoss(t *testing.T) {
	const elems = 4
	u := &gatedUplink{entered: make(chan struct{}), release: make(chan struct{})}
	defer close(u.release)
	_, l := startPipeServer(t, Config{Group: 2, RoundTimeout: time.Minute,
		Uplink: func(int) (UplinkRound, error) { return u, nil }})
	a, dead := helloConn(t, l, elems), helloConn(t, l, elems)
	defer a.Close()
	<-u.entered
	dead.Close()
	if e := readAbort(t, a); e.Code != AbortPeerLost {
		t.Fatalf("survivor got %s, want %s", e.Code, AbortPeerLost)
	}
}

// TestJoinWakeDeadlineBoundsSilentClient: with no probe timer left, the
// round deadline alone must still end the wait of a client whose round
// never fills — and the poke that ended it must be gone from the
// connection by the time it says HELLO again.
func TestJoinWakeDeadlineBoundsSilentClient(t *testing.T) {
	const elems = 4
	_, l := startPipeServer(t, Config{Group: 2, RoundTimeout: 50 * time.Millisecond})
	conn := helloConn(t, l, elems)
	defer conn.Close()
	for round := 0; ; round++ {
		if e := readAbort(t, conn); e.Code != AbortDeadline {
			t.Fatalf("lone round %d got %s, want %s", round, e.Code, AbortDeadline)
		}
		if round == 1 {
			return
		}
		sayHello(t, conn, elems)
	}
}

// TestJoinWakeHistogram: hear_gateway_join_wake_seconds takes one
// observation per JOIN written — group per round — whether the seal epoch
// was fixed at fill or by the cascade goroutine.
func TestJoinWakeHistogram(t *testing.T) {
	const group, rounds = 3, 4
	for _, cascade := range []bool{false, true} {
		reg := metrics.New()
		cfg := Config{Group: group, Metrics: reg}
		if cascade {
			cfg.Uplink = func(int) (UplinkRound, error) { return echoUplink{}, nil }
		}
		_, l := startPipeServer(t, cfg)
		clients := make([]*Client, group)
		for i := range clients {
			clients[i] = dialPipe(t, l, ClientOptions{})
		}
		runRounds(t, clients, rounds, 8)
		m := reg.Map()
		if got := m["hear_gateway_join_wake_seconds_count"]; got != group*rounds {
			t.Errorf("cascade=%v: join_wake count = %g, want %d", cascade, got, group*rounds)
		}
		if got := m["hear_gateway_join_wake_seconds_sum"]; got <= 0 {
			t.Errorf("cascade=%v: join_wake sum = %g, want > 0", cascade, got)
		}
	}
}
