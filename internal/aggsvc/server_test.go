package aggsvc

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// plainSealer is a key-free Sealer for transport tests: lanes are plaintext
// LE int64, so the gateway's SumUint64 fold produces the plain vector sum.
// Crypto correctness belongs to gateway_test.go / the e2e test; these tests
// exercise framing, rounds, and failure paths.
type plainSealer struct{}

func (plainSealer) Seal(vals []int64, _ uint64) (cipher, tags []byte, err error) {
	b := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[i*8:], uint64(v))
	}
	return b, nil, nil
}

func (plainSealer) Verify(_, _ []byte) error { return nil }

func (plainSealer) Tagged() bool { return false }

func (plainSealer) Epoch() uint64 { return 0 }

func (plainSealer) Open(reduced []byte, out []int64) error {
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(reduced[i*8:]))
	}
	return nil
}

// startPipeServer runs a gateway on an in-process pipe listener and tears
// it down with the test.
func startPipeServer(t *testing.T, cfg Config) (*Server, *PipeListener) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := NewPipeListener()
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return s, l
}

func dialPipe(t *testing.T, l *PipeListener, opt ClientOptions) *Client {
	t.Helper()
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if opt.Timeout == 0 {
		opt.Timeout = 10 * time.Second // net.Pipe never times out on its own
	}
	return NewClient(conn, plainSealer{}, opt)
}

func TestPipeRoundTrip(t *testing.T) {
	const group, elems = 3, 100
	s, l := startPipeServer(t, Config{Group: group, ChunkBytes: 128})
	want := make([]int64, elems)
	inputs := make([][]int64, group)
	for i := range inputs {
		inputs[i] = make([]int64, elems)
		for j := range inputs[i] {
			inputs[i][j] = int64(i*10000 + j - 5000)
			want[j] += inputs[i][j]
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, group)
	outs := make([][]int64, group)
	for i := 0; i < group; i++ {
		wg.Add(1)
		c := dialPipe(t, l, ClientOptions{})
		go func(i int) {
			defer wg.Done()
			outs[i] = make([]int64, elems)
			_, errs[i] = c.Aggregate(inputs[i], outs[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < group; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		for j := range want {
			if outs[i][j] != want[j] {
				t.Fatalf("client %d elem %d = %d, want %d", i, j, outs[i][j], want[j])
			}
		}
	}
	if got := s.roundsCompleted.Load(); got != 1 {
		t.Errorf("rounds_completed = %d, want 1", got)
	}
}

// Two rounds of two clients each run concurrently: the first pair's round
// seals when full, so the second pair lands in a fresh round while the
// first may still be folding.
func TestConcurrentRounds(t *testing.T) {
	const group, elems, pairs = 2, 64, 2
	s, l := startPipeServer(t, Config{Group: group, ChunkBytes: 64})
	in := make([]int64, elems)
	for j := range in {
		in[j] = int64(j + 1)
	}
	var wg sync.WaitGroup
	errs := make([]error, group*pairs)
	for i := 0; i < group*pairs; i++ {
		wg.Add(1)
		c := dialPipe(t, l, ClientOptions{})
		go func(i int) {
			defer wg.Done()
			out := make([]int64, elems)
			_, err := c.Aggregate(in, out)
			if err == nil {
				for j := range out {
					if out[j] != int64(group)*in[j] {
						errs[i] = &AbortError{Msg: "bad aggregate"}
						return
					}
				}
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if got := s.roundsCompleted.Load(); got != pairs {
		t.Errorf("rounds_completed = %d, want %d", got, pairs)
	}
}

// The same connection runs several rounds back to back (re-HELLO).
func TestSequentialRoundsOneConn(t *testing.T) {
	const rounds = 3
	_, l := startPipeServer(t, Config{Group: 1})
	c := dialPipe(t, l, ClientOptions{})
	for r := 0; r < rounds; r++ {
		in := []int64{int64(r), -int64(r)}
		out := make([]int64, 2)
		info, err := c.Aggregate(in, out)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if info.ID != uint64(r) {
			t.Errorf("round id %d, want %d", info.ID, r)
		}
		if out[0] != in[0] || out[1] != in[1] {
			t.Errorf("round %d aggregate %v, want %v", r, out, in)
		}
	}
}

// A participant vanishing mid-round must abort the round for the survivor
// with a typed participant-lost error — never a partial aggregate.
func TestClientDropMidSubmitAbortsRound(t *testing.T) {
	const elems = 32
	s, l := startPipeServer(t, Config{Group: 2, ChunkBytes: 64})

	// The dropper speaks raw frames: admitted, submits one 64 B chunk of its
	// 256 B lane, then drops the connection.
	dconn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	hello := encodeHello(helloFrame{Version: ProtocolVersion, Scheme: SchemeInt64Sum, Elems: elems})
	if err := writeFrame(dconn, FrameHello, hello); err != nil {
		t.Fatal(err)
	}

	// The survivor runs the full client; its arrival fills the round, so
	// the dropper's JOIN arrives only now.
	surv := dialPipe(t, l, ClientOptions{})
	done := make(chan error, 1)
	go func() {
		out := make([]int64, elems)
		_, err := surv.Aggregate(make([]int64, elems), out)
		done <- err
	}()
	ft, p, err := readFrame(dconn, DefaultMaxFrameBytes)
	if err != nil || ft != FrameJoin {
		t.Fatalf("dropper admission: %s %v", ft, err)
	}
	join, err := decodeJoin(p)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 64)
	hdr := encodeSubmitHeader(submitHeader{Round: join.Round, Lane: LaneData, Offset: 0})
	if err := writeFrame(dconn, FrameSubmit, hdr, chunk); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the survivor finish submitting
	dconn.Close()

	err = <-done
	var aerr *AbortError
	if !errors.As(err, &aerr) {
		t.Fatalf("survivor got %v, want *AbortError", err)
	}
	if aerr.Code != AbortPeerLost {
		t.Errorf("abort code %s, want %s", aerr.Code, AbortPeerLost)
	}
	if got := s.roundsAborted.Load(); got != 1 {
		t.Errorf("rounds_aborted = %d, want 1", got)
	}
	waitLanesHome(t, s)
}

// A round that never fills aborts at its deadline; the waiting participant
// receives the deadline abort rather than hanging.
func TestDeadlineExpiry(t *testing.T) {
	_, l := startPipeServer(t, Config{Group: 2, RoundTimeout: 50 * time.Millisecond})
	c := dialPipe(t, l, ClientOptions{Timeout: 5 * time.Second})
	out := make([]int64, 4)
	_, err := c.Aggregate([]int64{1, 2, 3, 4}, out)
	var aerr *AbortError
	if !errors.As(err, &aerr) {
		t.Fatalf("got %v, want *AbortError", err)
	}
	if aerr.Code != AbortDeadline {
		t.Errorf("abort code %s, want %s", aerr.Code, AbortDeadline)
	}
}

// A dead open round (deadline expired before filling) must not wedge the
// gateway: the next HELLO starts a fresh round.
func TestRoundRecoversAfterDeadline(t *testing.T) {
	// The timeout bounds the recovery round too; keep enough margin that a
	// loaded test machine can fill it (the lone-client abort just waits
	// that much longer).
	_, l := startPipeServer(t, Config{Group: 2, RoundTimeout: 250 * time.Millisecond})
	c := dialPipe(t, l, ClientOptions{Timeout: 5 * time.Second})
	out := make([]int64, 1)
	if _, err := c.Aggregate([]int64{7}, out); err == nil {
		t.Fatal("lone client completed a group-2 round")
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		nc := dialPipe(t, l, ClientOptions{})
		go func(i int) {
			defer wg.Done()
			o := make([]int64, 1)
			_, errs[i] = nc.Aggregate([]int64{5}, o)
			if errs[i] == nil && o[0] != 10 {
				errs[i] = errors.New("bad aggregate")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("post-recovery client %d: %v", i, err)
		}
	}
}

// expectHelloRefused sends one HELLO payload to a fresh single-client
// gateway and demands a typed ABORT with the given code.
func expectHelloRefused(t *testing.T, payload []byte, want AbortCode) {
	t.Helper()
	_, l := startPipeServer(t, Config{Group: 1})
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A bad length is refused on the frame header alone, and net.Pipe is
	// synchronous: the payload write may never be read.
	go writeFrame(conn, FrameHello, payload)
	ft, p, err := readFrame(conn, DefaultMaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if ft != FrameAbort {
		t.Fatalf("got %s, want ABORT", ft)
	}
	aerr, err := decodeAbort(p)
	if err != nil {
		t.Fatal(err)
	}
	if aerr.Code != want {
		t.Errorf("abort code %s, want %s", aerr.Code, want)
	}
}

func TestWrongVersionHello(t *testing.T) {
	expectHelloRefused(t, encodeHello(helloFrame{Version: 99, Scheme: SchemeInt64Sum, Elems: 8}), AbortVersion)
}

// A frame declaring a payload beyond the limit is refused before any
// payload byte is read.
func TestOversizedFrameRejected(t *testing.T) {
	s, l := startPipeServer(t, Config{Group: 1, MaxFrameBytes: 1 << 16, ChunkBytes: 1 << 12})
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [frameHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[:4], 1<<20)
	hdr[4] = byte(FrameSubmit)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	ft, p, err := readFrame(conn, DefaultMaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if ft != FrameAbort {
		t.Fatalf("got %s, want ABORT", ft)
	}
	aerr, err := decodeAbort(p)
	if err != nil {
		t.Fatal(err)
	}
	if aerr.Code != AbortOversize {
		t.Errorf("abort code %s, want %s", aerr.Code, AbortOversize)
	}
	if got := s.framesRejected.Load(); got != 1 {
		t.Errorf("frames_rejected = %d, want 1", got)
	}
}

// A HELLO disagreeing with the open round's geometry is refused without
// poisoning that round.
func TestMismatchedHelloRefused(t *testing.T) {
	_, l := startPipeServer(t, Config{Group: 2})
	first := dialPipe(t, l, ClientOptions{Timeout: 5 * time.Second})
	firstDone := make(chan error, 1)
	go func() {
		out := make([]int64, 8)
		_, err := first.Aggregate(make([]int64, 8), out)
		firstDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the first client open the round

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := encodeHello(helloFrame{Version: ProtocolVersion, Scheme: SchemeInt64Sum, Elems: 16})
	if err := writeFrame(conn, FrameHello, hello); err != nil {
		t.Fatal(err)
	}
	ft, p, err := readFrame(conn, DefaultMaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if ft != FrameAbort {
		t.Fatalf("got %s, want ABORT", ft)
	}
	aerr, _ := decodeAbort(p)
	if aerr.Code != AbortMismatch {
		t.Errorf("abort code %s, want %s", aerr.Code, AbortMismatch)
	}

	// The open round is intact: a conforming second client completes it.
	second := dialPipe(t, l, ClientOptions{})
	out := make([]int64, 8)
	if _, err := second.Aggregate(make([]int64, 8), out); err != nil {
		t.Fatalf("conforming client after mismatch: %v", err)
	}
	if err := <-firstDone; err != nil {
		t.Fatalf("first client: %v", err)
	}
}

// Chunks must arrive in order per lane; an out-of-order offset is a
// protocol violation that fails the round closed.
func TestOutOfOrderChunkAborts(t *testing.T) {
	_, l := startPipeServer(t, Config{Group: 1, ChunkBytes: 64})
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := encodeHello(helloFrame{Version: ProtocolVersion, Scheme: SchemeInt64Sum, Elems: 32})
	if err := writeFrame(conn, FrameHello, hello); err != nil {
		t.Fatal(err)
	}
	ft, p, err := readFrame(conn, DefaultMaxFrameBytes)
	if err != nil || ft != FrameJoin {
		t.Fatalf("admission: %s %v", ft, err)
	}
	join, _ := decodeJoin(p)
	hdr := encodeSubmitHeader(submitHeader{Round: join.Round, Lane: LaneData, Offset: 128})
	if err := writeFrame(conn, FrameSubmit, hdr, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	ft, p, err = readFrame(conn, DefaultMaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if ft != FrameAbort {
		t.Fatalf("got %s, want ABORT", ft)
	}
	aerr, _ := decodeAbort(p)
	if aerr.Code != AbortProtocol {
		t.Errorf("abort code %s, want %s", aerr.Code, AbortProtocol)
	}
}

func TestServerStats(t *testing.T) {
	_, l := startPipeServer(t, Config{Group: 1})
	c := dialPipe(t, l, ClientOptions{})
	out := make([]int64, 16)
	if _, err := c.Aggregate(make([]int64, 16), out); err != nil {
		t.Fatal(err)
	}
	stats, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"rounds_completed", "clients_joined", "chunks_folded", "bytes_folded", "pool_blocks"} {
		if _, ok := stats[k]; !ok {
			t.Errorf("stats missing %q", k)
		}
	}
	if stats["rounds_completed"] != 1 {
		t.Errorf("rounds_completed = %d, want 1", stats["rounds_completed"])
	}
	if stats["bytes_folded"] != 16*8 {
		t.Errorf("bytes_folded = %d, want %d", stats["bytes_folded"], 16*8)
	}
	if _, ok := stats["phase_ns_"+PhaseFold]; !ok {
		t.Errorf("stats missing phase timing for %q", PhaseFold)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewServer(Config{Group: 0}); err == nil {
		t.Error("group 0 accepted")
	}
	if _, err := NewServer(Config{Group: 1, ChunkBytes: 1 << 20, MaxFrameBytes: 1 << 10}); err == nil {
		t.Error("chunk larger than frame limit accepted")
	}
}

func TestPipeListenerClose(t *testing.T) {
	l := NewPipeListener()
	l.Close()
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Accept after Close: %v, want net.ErrClosed", err)
	}
	if _, err := l.Dial(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Dial after Close: %v, want net.ErrClosed", err)
	}
	l.Close() // idempotent
}
