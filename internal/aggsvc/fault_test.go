package aggsvc

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"hear/internal/core/fold"
	"hear/internal/inc"
)

// helloConn opens a connection to the pipe listener and sends HELLO. The
// JOIN is read separately (readJoin): under the JOIN-at-fill protocol it
// only arrives once the round's whole group has said HELLO.
func helloConn(t *testing.T, l *PipeListener, elems int) net.Conn {
	t.Helper()
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	sayHello(t, conn, elems)
	return conn
}

// sayHello requests admission to an elems-element SUM round on conn.
func sayHello(t *testing.T, conn net.Conn, elems int) {
	t.Helper()
	hello := helloFrame{Version: ProtocolVersion, Scheme: SchemeInt64Sum, Elems: elems}
	if err := writeFrame(conn, FrameHello, encodeHello(hello)); err != nil {
		t.Fatal(err)
	}
}

// readJoin reads the admission ticket off a conn that said HELLO.
func readJoin(t *testing.T, conn net.Conn) joinFrame {
	t.Helper()
	ft, p, err := readFrame(conn, DefaultMaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if ft != FrameJoin {
		t.Fatalf("expected JOIN, got %s", ft)
	}
	join, err := decodeJoin(p)
	if err != nil {
		t.Fatal(err)
	}
	return join
}

func submitChunk(t *testing.T, conn net.Conn, round uint64, off int, payload []byte) {
	t.Helper()
	hdr := encodeSubmitHeader(submitHeader{Round: round, Lane: LaneData, Offset: off})
	if err := writeFrame(conn, FrameSubmit, hdr, payload); err != nil {
		t.Fatal(err)
	}
}

func readAbort(t *testing.T, conn net.Conn) *AbortError {
	t.Helper()
	ft, p, err := readFrame(conn, DefaultMaxFrameBytes)
	if err != nil {
		t.Fatalf("reading expected ABORT: %v", err)
	}
	if ft != FrameAbort {
		t.Fatalf("expected ABORT, got %s", ft)
	}
	e, err := decodeAbort(p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDeadlineAbortRacesInflightFolds is the fold/abort race coverage:
// the round deadline fires while chunks sit on the worker pool behind a
// stalled fold. Tasks that were still queued at the abort must not touch
// the accumulator, and every pooled block must come back (no leaks).
func TestDeadlineAbortRacesInflightFolds(t *testing.T) {
	const chunkBytes = 1 << 10
	const chunks = 4
	const elems = chunkBytes * chunks / 8

	gate := make(chan struct{})
	entered := make(chan struct{}, chunks)
	var foldCount int
	var mu sync.Mutex
	gated := func(dst, src []byte) {
		entered <- struct{}{}
		<-gate
		mu.Lock()
		foldCount++
		mu.Unlock()
		fold.SumUint64(dst, src)
	}
	orig := laneFolds[SchemeInt64Sum]
	laneFolds[SchemeInt64Sum] = struct{ data, tag inc.Fold }{data: gated, tag: orig.tag}
	defer func() { laneFolds[SchemeInt64Sum] = orig }()

	s, err := NewServer(Config{
		Group:        2, // the second participant joins but never submits
		Workers:      1, // one worker: the gated fold stalls the whole queue
		PoolBlocks:   chunks * 2,
		ChunkBytes:   chunkBytes,
		RoundTimeout: 300 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	l := NewPipeListener()
	go s.Serve(l)
	defer s.Close()

	conn := helloConn(t, l, elems)
	defer conn.Close()
	silent := helloConn(t, l, elems) // fills the round, then never submits
	defer silent.Close()
	join := readJoin(t, conn)
	readJoin(t, silent)
	payload := make([]byte, chunkBytes)
	for i := range payload {
		payload[i] = 1
	}
	for i := 0; i < chunks; i++ {
		submitChunk(t, conn, join.Round, i*chunkBytes, payload)
	}
	// The first chunk's fold is executing (stalled at the gate); the rest
	// are queued behind it on the single worker.
	<-entered

	// Deadline expires with the folds still in flight.
	aerr := readAbort(t, conn)
	if aerr.Code != AbortDeadline {
		t.Fatalf("abort code %s, want %s", aerr.Code, AbortDeadline)
	}
	// Release the stalled fold; the queued tasks now run foldChunk after
	// the abort and must skip the accumulator.
	close(gate)

	// Every pooled block must come home: drain the pool to its cap without
	// an error. Poll because task retirement is asynchronous.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var blocks [][]byte
		ok := true
		for i := 0; i < chunks*2; i++ {
			b, err := s.pool.Get()
			if err != nil {
				ok = false
				break
			}
			blocks = append(blocks, b)
		}
		for _, b := range blocks {
			s.pool.Put(b)
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never drained to capacity: a fold task leaked its block")
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	got := foldCount
	mu.Unlock()
	if got != 1 {
		t.Fatalf("%d folds wrote to an aborted round's accumulator; only the one in flight before the abort may run", got)
	}
	if e := readAbort(t, silent); e.Code != AbortDeadline {
		t.Fatalf("silent participant's abort code %s, want %s", e.Code, AbortDeadline)
	}
	waitLanesHome(t, s) // back once the last queued task retired
}

// TestQuorumEvictsStragglers: with Quorum set, a deadline with enough
// finishers evicts the stragglers (connection dropped) and hands everyone
// the retryable AbortStraggler; the finisher's connection survives for an
// immediate re-round.
func TestQuorumEvictsStragglers(t *testing.T) {
	const elems = 16
	s, err := NewServer(Config{
		Group:        2,
		Quorum:       1,
		RoundTimeout: 300 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	l := NewPipeListener()
	go s.Serve(l)
	defer s.Close()

	// Finisher and straggler both join; the round fills and JOINs flow.
	finisher := helloConn(t, l, elems)
	defer finisher.Close()
	straggler := helloConn(t, l, elems)
	defer straggler.Close()
	join := readJoin(t, finisher)
	readJoin(t, straggler)

	// The finisher submits its whole lane; the straggler goes silent.
	lane := make([]byte, elems*8)
	binary.LittleEndian.PutUint64(lane, 7)
	submitChunk(t, finisher, join.Round, 0, lane)

	// Both get the typed straggler abort at the deadline.
	fa := readAbort(t, finisher)
	if fa.Code != AbortStraggler {
		t.Fatalf("finisher abort %s, want %s", fa.Code, AbortStraggler)
	}
	sa := readAbort(t, straggler)
	if sa.Code != AbortStraggler {
		t.Fatalf("straggler abort %s, want %s", sa.Code, AbortStraggler)
	}

	// The straggler's connection is dead: the gateway hangs up after the
	// abort, so the next read fails.
	straggler.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := readFrame(straggler, DefaultMaxFrameBytes); err == nil {
		t.Fatal("evicted straggler's connection still serves frames")
	}

	// The finisher's connection survives: a fresh HELLO is admitted into a
	// new round, which a second live client fills.
	hello := helloFrame{Version: ProtocolVersion, Scheme: SchemeInt64Sum, Elems: elems}
	if err := writeFrame(finisher, FrameHello, encodeHello(hello)); err != nil {
		t.Fatalf("finisher re-HELLO: %v", err)
	}
	filler := helloConn(t, l, elems)
	defer filler.Close()
	rejoin := readJoin(t, finisher)
	readJoin(t, filler)
	if rejoin.Round == join.Round {
		t.Fatal("re-JOIN landed in the aborted round")
	}

	if got := s.StatsMap()["clients_evicted"]; got != 1 {
		t.Fatalf("clients_evicted = %d, want 1", got)
	}
}

// TestQuorumNotMetFallsBackToDeadline: with Quorum unmet at the deadline
// the abort stays the plain (still retryable) AbortDeadline and nobody is
// evicted.
func TestQuorumNotMetFallsBackToDeadline(t *testing.T) {
	s, err := NewServer(Config{
		Group:        2,
		Quorum:       2,
		RoundTimeout: 200 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	l := NewPipeListener()
	go s.Serve(l)
	defer s.Close()

	// A lone joiner: the round never fills, so no JOIN is ever sent — the
	// first frame back is the deadline abort.
	conn := helloConn(t, l, 8)
	defer conn.Close()
	if a := readAbort(t, conn); a.Code != AbortDeadline {
		t.Fatalf("abort %s, want %s", a.Code, AbortDeadline)
	}
	if got := s.StatsMap()["clients_evicted"]; got != 0 {
		t.Fatalf("clients_evicted = %d, want 0", got)
	}
}

// TestQuorumValidation: Quorum outside [0, Group] is a config error.
func TestQuorumValidation(t *testing.T) {
	if _, err := NewServer(Config{Group: 2, Quorum: 3}); err == nil {
		t.Fatal("quorum > group accepted")
	}
	if _, err := NewServer(Config{Group: 2, Quorum: -1}); err == nil {
		t.Fatal("negative quorum accepted")
	}
}

// TestRetryableClassification pins which failures the client will retry.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&AbortError{Code: AbortDeadline}, true},
		{&AbortError{Code: AbortPeerLost}, true},
		{&AbortError{Code: AbortStraggler}, true},
		{&AbortError{Code: AbortProtocol}, false},
		{&AbortError{Code: AbortVersion}, false},
		{&AbortError{Code: AbortMismatch}, false},
		{&AbortError{Code: AbortOversize}, false},
		{&AbortError{Code: AbortShutdown}, false},
		{&errTransient{errors.New("conn reset")}, true},
		{errors.New("seal: bad input"), false},
	}
	for _, c := range cases {
		if got := retryable(c.err); got != c.want {
			t.Errorf("retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
