package aggsvc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"hear/internal/core/fold"
	"hear/internal/inc"
)

// Every lane-sized buffer the gateway holds — round accumulators and
// degraded-mode stages — comes from one free list and goes back to it
// exactly once. These tests drive each way a round can end and demand
// lanes_inuse back at 0, and pin what recycling must not change: a reused
// lane starts at its fold's identity, and no fold of an earlier round
// reaches it.

// waitLanesHome polls until every lane is back on the free list. Handlers
// return a round's lanes after their last write, which a client may see
// finish before the handler gets there.
func waitLanesHome(t *testing.T, s *Server) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		n := int64(s.StatsMap()["lanes_inuse"])
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("lanes_inuse = %d after the round ended, want 0", n)
		}
	}
}

// waitStat polls until the gateway's counter key reads want.
func waitStat(t *testing.T, s *Server, key string, want uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		got := s.StatsMap()[key]
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", key, got, want)
		}
	}
}

// fixedLanes builds one fixedSealer per participant with distinct lane
// bytes; tag lanes carry reduced mod-2^61-1 residues, SumMod61's input
// contract.
func fixedLanes(group, elems int, scheme uint8, tagged bool, seed int) []*fixedSealer {
	lanes := make([]*fixedSealer, group)
	for i := range lanes {
		fs := &fixedSealer{scheme: scheme, cipher: make([]byte, elems*8)}
		for j := range fs.cipher {
			fs.cipher[j] = byte((i + seed + 1) * (j + 13))
		}
		if tagged {
			fs.tags = make([]byte, elems*8)
			for j := 0; j < len(fs.tags); j += 8 {
				word := uint64(i+seed+7) * uint64(j+3) * 0x9e3779b9 % ((1 << 61) - 1)
				binary.LittleEndian.PutUint64(fs.tags[j:], word)
			}
		}
		lanes[i] = fs
	}
	return lanes
}

// freshFold is the oracle: every lane folded into a newly made,
// identity-seeded accumulator.
func freshFold(scheme uint8, lanes [][]byte, tag bool) []byte {
	folds := laneFolds[scheme]
	acc := make([]byte, len(lanes[0]))
	f := folds.data
	if tag {
		f = folds.tag
	} else {
		identitySeed(scheme, acc)
	}
	for _, l := range lanes {
		f(acc, append([]byte(nil), l...))
	}
	return acc
}

// aggregateFixed runs one round with every sealer on its own connection
// and checks what each got back against the fresh-accumulator oracle.
func aggregateFixed(t *testing.T, l *PipeListener, lanes []*fixedSealer) {
	t.Helper()
	errs := make(chan error, len(lanes))
	for _, fs := range lanes {
		go func(fs *fixedSealer) {
			conn, err := l.Dial()
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			c := NewClient(conn, fs, ClientOptions{Timeout: 10 * time.Second})
			n := len(fs.cipher) / 8
			_, err = c.Aggregate(make([]int64, n), make([]int64, n))
			errs <- err
		}(fs)
	}
	for range lanes {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	data, tags := make([][]byte, len(lanes)), make([][]byte, len(lanes))
	for i, fs := range lanes {
		data[i], tags[i] = fs.cipher, fs.tags
	}
	want := freshFold(lanes[0].scheme, data, false)
	var wantTags []byte
	if lanes[0].tags != nil {
		wantTags = freshFold(lanes[0].scheme, tags, true)
	}
	for i, fs := range lanes {
		if !bytes.Equal(fs.gotData, want) {
			t.Fatalf("participant %d: data lane differs from a fold into a fresh accumulator", i)
		}
		if !bytes.Equal(fs.gotTags, wantTags) {
			t.Fatalf("participant %d: tag lane differs from a fold into a fresh accumulator", i)
		}
	}
}

// TestRecycleComplete: completed rounds, flat and cascaded, tagged and
// untagged, hand back both lanes, and every round after the first runs on
// recycled ones bit-identically to fresh ones.
func TestRecycleComplete(t *testing.T) {
	const group, elems, rounds = 3, 700, 4
	for _, cascade := range []bool{false, true} {
		for _, tagged := range []bool{false, true} {
			t.Run(fmt.Sprintf("cascade=%v/tagged=%v", cascade, tagged), func(t *testing.T) {
				cfg := Config{Group: group, ChunkBytes: 1024}
				if cascade {
					cfg.Uplink = func(int) (UplinkRound, error) { return echoUplink{}, nil }
				}
				s, l := startPipeServer(t, cfg)
				for r := 0; r < rounds; r++ {
					aggregateFixed(t, l, fixedLanes(group, elems, SchemeInt64Sum, tagged, r))
					waitLanesHome(t, s)
				}
			})
		}
	}
}

// TestRecycleReseedsIdentity runs SUM → PROD → SUM → XOR → PROD at one
// size on one gateway, so a recycled lane is reset from a sum to PROD's
// word 1 and from a product back to zero.
func TestRecycleReseedsIdentity(t *testing.T) {
	const group, elems = 2, 513
	s, l := startPipeServer(t, Config{Group: group, ChunkBytes: 1024})
	for i, scheme := range []uint8{SchemeInt64Sum, SchemeInt64Prod, SchemeInt64Sum, SchemeInt64Xor, SchemeInt64Prod} {
		aggregateFixed(t, l, fixedLanes(group, elems, scheme, false, i))
		waitLanesHome(t, s)
	}
}

// TestRecycleStaleFold is the regression for the release rule's third
// part. One fold worker; round A aborts at its deadline while its first
// chunk's fold is running (it read A's accumulator before the abort) and
// three more sit queued. Both participants re-HELLO at once, so round B —
// same size — is admitted once A's handlers are done with it. If A's lanes
// went back then, B could be handed the very buffer the running fold then
// writes. B's aggregate must equal a fold into a fresh accumulator.
// One P: sync.Pool hands a buffer put on one P to a Get on another only
// from its shared half, so without this a buggy release would often go
// unnoticed.
func TestRecycleStaleFold(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const chunkBytes, chunks = 1 << 10, 4
	const elems = chunkBytes * chunks / 8
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	var once sync.Once
	gated := func(dst, src []byte) {
		once.Do(func() {
			entered <- struct{}{}
			<-gate
		})
		fold.SumUint64(dst, src)
	}
	orig := laneFolds[SchemeInt64Sum]
	laneFolds[SchemeInt64Sum] = struct{ data, tag inc.Fold }{data: gated, tag: orig.tag}
	defer func() { laneFolds[SchemeInt64Sum] = orig }()

	s, l := startPipeServer(t, Config{
		Group:        2,
		Workers:      1,
		PoolBlocks:   4 * chunks,
		ChunkBytes:   chunkBytes,
		RoundTimeout: 300 * time.Millisecond,
		Logf:         t.Logf,
	})
	a := helloConn(t, l, elems)
	defer a.Close()
	waitParts(t, s, 1)
	s.rm.mu.Lock()
	roundA := s.rm.open[0]
	s.rm.mu.Unlock()
	b := helloConn(t, l, elems)
	defer b.Close()
	joinA := readJoin(t, a)
	readJoin(t, b)
	stale := bytes.Repeat([]byte{0xa5}, chunkBytes)
	for i := 0; i < chunks; i++ {
		submitChunk(t, a, joinA.Round, i*chunkBytes, stale)
	}
	<-entered // chunk 0 is folding into A's accumulator; chunks 1-3 queue behind it
	for _, c := range []net.Conn{a, b} {
		if e := readAbort(t, c); e.Code != AbortDeadline {
			t.Fatalf("round A: got %s, want %s", e.Code, AbortDeadline)
		}
	}
	// Both handlers are done with round A: only its fold tasks still hold
	// its lanes.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		roundA.mu.Lock()
		holders := roundA.holders
		roundA.mu.Unlock()
		if holders == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("round A still has %d lane holders after both ABORTs", holders)
		}
	}

	sayHello(t, a, elems)
	sayHello(t, b, elems)
	joinB := readJoin(t, a)
	readJoin(t, b)
	lanes := [][]byte{make([]byte, elems*8), make([]byte, elems*8)}
	for i, lane := range lanes {
		for j := range lane {
			lane[j] = byte((i + 3) * (j + 5))
		}
	}
	// B's accumulator is seeded (JOIN is written after join took it); the
	// running fold of A's chunk 0 completes now, and A's queued chunks retire
	// unfolded.
	close(gate)
	for i, c := range []net.Conn{a, b} {
		for off := 0; off < elems*8; off += chunkBytes {
			submitChunk(t, c, joinB.Round, off, lanes[i][off:off+chunkBytes])
		}
	}
	want := freshFold(SchemeInt64Sum, lanes, false)
	for i, c := range []net.Conn{a, b} {
		ft, p, err := readFrame(c, DefaultMaxFrameBytes)
		if err != nil || ft != FrameResult {
			t.Fatalf("round B conn %d: got %s, %v; want RESULT", i, ft, err)
		}
		_, data, _, _, err := decodeResult(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("round B conn %d: aggregate differs from a fold into a fresh accumulator — a fold of aborted round A reached it", i)
		}
	}
	waitLanesHome(t, s)
}

// degradedHello admits a hand-driven participant that declares its rank and
// FlagDegradedOK.
func degradedHello(t *testing.T, l *PipeListener, elems, rank int) net.Conn {
	t.Helper()
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	h := helloFrame{Version: ProtocolVersion, Scheme: SchemeInt64Sum, Flags: FlagDegradedOK, Elems: elems, Rank: rank}
	if err := writeFrame(conn, FrameHello, encodeHello(h)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestRecycleDegradedStragglerMidChunk: in a degraded round a straggler has
// staged one whole chunk and is half-way through the next frame when the
// deadline degrades the round. The deadline only marks it evicted; its
// handler, still inside the chunk read, is the one that returns the stages
// (run it under -race: the timer goroutine no longer touches them). The
// survivors' RESULT is their fold alone, and every lane comes home.
func TestRecycleDegradedStragglerMidChunk(t *testing.T) {
	const chunkBytes, chunks = 1 << 10, 2
	const elems = chunkBytes * chunks / 8
	s, l := startPipeServer(t, Config{
		Group:          3,
		Quorum:         2,
		DegradedRounds: true,
		ChunkBytes:     chunkBytes,
		RoundTimeout:   300 * time.Millisecond,
		Logf:           t.Logf,
	})
	conns := make([]net.Conn, 3)
	for rank := range conns {
		conns[rank] = degradedHello(t, l, elems, rank)
		defer conns[rank].Close()
	}
	lanes := make([][]byte, 3)
	var round uint64
	for rank, c := range conns {
		round = readJoin(t, c).Round
		lanes[rank] = make([]byte, elems*8)
		for j := range lanes[rank] {
			lanes[rank][j] = byte((rank + 1) * (j + 1))
		}
	}
	for rank := 0; rank < 2; rank++ { // the survivors deliver everything
		for off := 0; off < elems*8; off += chunkBytes {
			submitChunk(t, conns[rank], round, off, lanes[rank][off:off+chunkBytes])
		}
	}
	// The straggler: chunk 0 whole, then half of chunk 1's frame.
	straggler := conns[2]
	submitChunk(t, straggler, round, 0, lanes[2][:chunkBytes])
	var frame bytes.Buffer
	hdr := encodeSubmitHeader(submitHeader{Round: round, Lane: LaneData, Offset: chunkBytes})
	if err := writeFrame(&frame, FrameSubmit, hdr, lanes[2][chunkBytes:]); err != nil {
		t.Fatal(err)
	}
	if _, err := straggler.Write(frame.Bytes()[:frame.Len()/2]); err != nil {
		t.Fatal(err)
	}

	want := freshFold(SchemeInt64Sum, lanes[:2], false)
	for rank := 0; rank < 2; rank++ {
		ft, p, err := readFrame(conns[rank], DefaultMaxFrameBytes)
		if err != nil || ft != FrameResult {
			t.Fatalf("survivor %d: got %s, %v; want RESULT", rank, ft, err)
		}
		_, data, _, surv, err := decodeResult(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(surv, []uint32{0, 1}) {
			t.Fatalf("survivor %d: RESULT names survivors %v, want [0 1]", rank, surv)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("survivor %d: degraded aggregate differs from the survivors' fold", rank)
		}
	}
	if e := readAbort(t, straggler); e.Code != AbortStraggler {
		t.Fatalf("straggler got %s, want %s", e.Code, AbortStraggler)
	}
	waitLanesHome(t, s)
}

// TestRecycleDeadlineAbort: a round that never fills and a filled round
// with a silent participant both end at the deadline with nothing held.
func TestRecycleDeadlineAbort(t *testing.T) {
	const elems = 64
	s, l := startPipeServer(t, Config{Group: 2, RoundTimeout: 100 * time.Millisecond})
	lone := helloConn(t, l, elems)
	defer lone.Close()
	if e := readAbort(t, lone); e.Code != AbortDeadline {
		t.Fatalf("lone joiner got %s, want %s", e.Code, AbortDeadline)
	}
	waitLanesHome(t, s)

	sayHello(t, lone, elems)
	silent := helloConn(t, l, elems)
	defer silent.Close()
	join := readJoin(t, lone)
	readJoin(t, silent)
	submitChunk(t, lone, join.Round, 0, make([]byte, elems*8))
	for _, c := range []net.Conn{lone, silent} {
		if e := readAbort(t, c); e.Code != AbortDeadline {
			t.Fatalf("got %s, want %s", e.Code, AbortDeadline)
		}
	}
	waitLanesHome(t, s)
}

// TestRecyclePeerLostMidSubmit: a fail-closed round whose participant dies
// half-way through a chunk aborts for the rest and holds nothing after.
func TestRecyclePeerLostMidSubmit(t *testing.T) {
	const elems = 256
	s, l := startPipeServer(t, Config{Group: 2, ChunkBytes: 1024})
	live := helloConn(t, l, elems)
	defer live.Close()
	dying := helloConn(t, l, elems)
	join := readJoin(t, live)
	readJoin(t, dying)
	var frame bytes.Buffer
	hdr := encodeSubmitHeader(submitHeader{Round: join.Round, Lane: LaneData})
	if err := writeFrame(&frame, FrameSubmit, hdr, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if _, err := dying.Write(frame.Bytes()[:600]); err != nil {
		t.Fatal(err)
	}
	dying.Close()
	if e := readAbort(t, live); e.Code != AbortPeerLost {
		t.Fatalf("survivor got %s, want %s", e.Code, AbortPeerLost)
	}
	waitLanesHome(t, s)
}

// TestRecyclePreFillLeave: a participant that leaves before fill drops its
// claim; the round still completes on the lanes it was created with, and a
// round whose last participant leaves gives them back at once.
func TestRecyclePreFillLeave(t *testing.T) {
	const elems = 32
	s, l := startPipeServer(t, Config{Group: 3})
	dead := helloConn(t, l, elems)
	waitParts(t, s, 1)
	if got := s.StatsMap()["lanes_inuse"]; got != 1 {
		t.Fatalf("lanes_inuse = %d with one untagged round open, want 1", got)
	}
	a := helloConn(t, l, elems)
	defer a.Close()
	waitParts(t, s, 2)
	dead.Close()
	waitParts(t, s, 1)
	b, c := helloConn(t, l, elems), helloConn(t, l, elems)
	defer b.Close()
	defer c.Close()
	finishPlainRound(t, []net.Conn{a, b, c}, elems)
	waitLanesHome(t, s)

	last := helloConn(t, l, elems)
	waitParts(t, s, 1)
	last.Close()
	waitLanesHome(t, s)
	if got := s.StatsMap()["rounds_aborted"]; got != 1 {
		t.Errorf("rounds_aborted = %d, want 1 (the round its last participant left)", got)
	}
}

// TestRecycleOversizeFrame: a frame header over MaxFrameBytes mid-submit
// aborts the round, and its lanes come back.
func TestRecycleOversizeFrame(t *testing.T) {
	const elems = 64
	s, l := startPipeServer(t, Config{Group: 2})
	a := helloConn(t, l, elems)
	defer a.Close()
	bad := helloConn(t, l, elems)
	defer bad.Close()
	readJoin(t, a)
	readJoin(t, bad)
	var hdr [frameHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[:4], 1<<30)
	hdr[4] = byte(FrameSubmit)
	if _, err := bad.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	for _, c := range []net.Conn{a, bad} {
		if e := readAbort(t, c); e.Code != AbortOversize {
			t.Fatalf("got %s, want %s", e.Code, AbortOversize)
		}
	}
	waitLanesHome(t, s)
}

// failingUplink fails the upstream exchange at one stage. Close unblocks a
// Negotiate parked on block, as a real uplink's connection close does.
type failingUplink struct {
	stage  string // "negotiate", "relay" or "block" (Negotiate waits for Close)
	closed chan struct{}
	once   sync.Once
}

func newFailingUplink(stage string) *failingUplink {
	return &failingUplink{stage: stage, closed: make(chan struct{})}
}

func (u *failingUplink) Negotiate(_ uint8, _ int, _ bool, cohortEpoch uint64) (uint64, error) {
	switch u.stage {
	case "negotiate":
		return 0, errors.New("upstream refused")
	case "block":
		<-u.closed
		return 0, net.ErrClosed
	}
	return cohortEpoch + 1, nil
}

func (u *failingUplink) Relay(_, _ []byte, _ []uint32, _ bool) ([]uint32, error) {
	return nil, errors.New("upstream lost")
}

func (u *failingUplink) Close() error {
	u.once.Do(func() { close(u.closed) })
	return nil
}

// TestRecycleUplinkFailure: a cascade whose upstream fails at negotiation
// or at relay ends every participant with AbortUpstream and gives back the
// lanes once the cascade goroutine has returned.
func TestRecycleUplinkFailure(t *testing.T) {
	const group, elems = 2, 200
	for _, stage := range []string{"negotiate", "relay"} {
		t.Run(stage, func(t *testing.T) {
			s, l := startPipeServer(t, Config{Group: group,
				Uplink: func(int) (UplinkRound, error) { return newFailingUplink(stage), nil }})
			errs := make(chan error, group)
			for i := 0; i < group; i++ {
				c := dialPipe(t, l, ClientOptions{})
				go func() {
					_, err := c.Aggregate(make([]int64, elems), make([]int64, elems))
					errs <- err
				}()
			}
			for i := 0; i < group; i++ {
				var aerr *AbortError
				if err := <-errs; !errors.As(err, &aerr) || aerr.Code != AbortUpstream {
					t.Fatalf("client got %v, want %s", err, AbortUpstream)
				}
			}
			waitLanesHome(t, s)
		})
	}
}

// TestRecycleServerClose: Close in the middle of a round — flat with a
// chunk in, cascaded with the uplink still negotiating — returns only once
// every lane is back.
func TestRecycleServerClose(t *testing.T) {
	const elems = 256
	for _, cascade := range []bool{false, true} {
		t.Run(fmt.Sprintf("cascade=%v", cascade), func(t *testing.T) {
			cfg := Config{Group: 2, ChunkBytes: 1024}
			if cascade {
				cfg.Uplink = func(int) (UplinkRound, error) { return newFailingUplink("block"), nil }
			}
			s, l := startPipeServer(t, cfg)
			a := helloConn(t, l, elems)
			defer a.Close()
			b := helloConn(t, l, elems)
			defer b.Close()
			waitStat(t, s, "clients_joined", 2)
			if !cascade {
				join := readJoin(t, a)
				submitChunk(t, a, join.Round, 0, make([]byte, 1024))
			}
			waitStat(t, s, "lanes_inuse", 1)
			s.Close()
			if got := int64(s.StatsMap()["lanes_inuse"]); got != 0 {
				t.Fatalf("lanes_inuse = %d after Close returned, want 0", got)
			}
		})
	}
}
