package aggsvc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// Test doubles: in-memory connections for driving the server's hot paths
// without sockets.

// replayConn replays a pre-encoded inbound byte stream and discards writes.
// Rewind re-arms it for the next benchmark iteration.
type replayConn struct {
	stream []byte
	off    int
}

func (c *replayConn) Read(p []byte) (int, error) {
	if c.off >= len(c.stream) {
		return 0, io.EOF
	}
	n := copy(p, c.stream[c.off:])
	c.off += n
	return n, nil
}

func (c *replayConn) Rewind()                          { c.off = 0 }
func (c *replayConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *replayConn) Close() error                     { return nil }
func (c *replayConn) LocalAddr() net.Addr              { return pipeAddr{} }
func (c *replayConn) RemoteAddr() net.Addr             { return pipeAddr{} }
func (c *replayConn) SetDeadline(time.Time) error      { return nil }
func (c *replayConn) SetReadDeadline(time.Time) error  { return nil }
func (c *replayConn) SetWriteDeadline(time.Time) error { return nil }

// discardConn counts written bytes and drops them.
type discardConn struct{ n int64 }

func (c *discardConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (c *discardConn) Write(p []byte) (int, error)      { c.n += int64(len(p)); return len(p), nil }
func (c *discardConn) Close() error                     { return nil }
func (c *discardConn) LocalAddr() net.Addr              { return pipeAddr{} }
func (c *discardConn) RemoteAddr() net.Addr             { return pipeAddr{} }
func (c *discardConn) SetDeadline(time.Time) error      { return nil }
func (c *discardConn) SetReadDeadline(time.Time) error  { return nil }
func (c *discardConn) SetWriteDeadline(time.Time) error { return nil }

// encodeSubmitStream pre-encodes one full data lane as in-order SUBMIT
// frames, the exact byte stream a client would send.
func encodeSubmitStream(round uint64, lane []byte, chunk int) []byte {
	var buf bytes.Buffer
	for off := 0; off < len(lane); off += chunk {
		end := off + chunk
		if end > len(lane) {
			end = len(lane)
		}
		hdr := encodeSubmitHeader(submitHeader{Round: round, Lane: LaneData, Offset: off})
		if err := writeFrame(&buf, FrameSubmit, hdr, lane[off:end]); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// ingestHarness wires a Server, a half-filled round and a replayable SUBMIT
// stream so receiveLanes — the real ingress hot loop — can run repeatedly.
// The round's group is one larger than its membership, so it never
// completes and every iteration re-ingests against live accumulators.
type ingestHarness struct {
	s    *Server
	r    *roundState
	part *participant
	conn *replayConn
}

func newIngestHarness(elems, chunk int) (*ingestHarness, error) {
	s, err := NewServer(Config{Group: 2, ChunkBytes: chunk, RoundTimeout: time.Hour})
	if err != nil {
		return nil, err
	}
	laneBytes := elems * 8
	r := &roundState{
		id:     1,
		params: roundParams{scheme: SchemeInt64Sum, elems: elems},
		group:  2,
		chunk:  chunk,
		data:   make([]byte, laneBytes),
		fullCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	part := &participant{slot: 0}
	r.parts = []*participant{part}
	lane := make([]byte, laneBytes)
	for i := range lane {
		lane[i] = byte(i * 31)
	}
	conn := &replayConn{stream: encodeSubmitStream(r.id, lane, chunk)}
	return &ingestHarness{s: s, r: r, part: part, conn: conn}, nil
}

// ingestOnce replays the whole lane through receiveLanes and waits for the
// fold workers to drain, so each run's allocations are fully attributed.
func (h *ingestHarness) ingestOnce() error {
	h.conn.Rewind()
	h.part.dataGot, h.part.tagGot, h.part.submitted = 0, 0, false
	if ok := h.s.receiveLanes(h.conn, h.r, h.part, laneFolds[SchemeInt64Sum]); !ok {
		return fmt.Errorf("receiveLanes reported a dead connection")
	}
	if h.r.aborted() {
		return fmt.Errorf("round aborted: %v", h.r.abortErr)
	}
	for {
		h.r.mu.Lock()
		n := h.r.tasks
		h.r.mu.Unlock()
		if n == 0 {
			return nil
		}
		runtime.Gosched()
	}
}

// fanOutOnce runs the server's per-participant RESULT egress — the same
// resultVectors + vectored write finishRound performs — across conns.
func fanOutOnce(s *Server, r *roundState, conns []net.Conn) error {
	for _, c := range conns {
		pre, data, tagN, tags, surv := r.resultVectors()
		if err := s.writeWithDeadline(c, FrameResult, pre, data, tagN, tags, surv); err != nil {
			return err
		}
	}
	return nil
}

func newResultRound(id uint64, laneBytes int, tagged bool) *roundState {
	r := &roundState{
		id:     id,
		params: roundParams{scheme: SchemeInt64Sum, elems: laneBytes / 8, tagged: tagged},
		group:  1,
		data:   make([]byte, laneBytes),
		fullCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	for i := range r.data {
		r.data[i] = byte(i * 131)
	}
	if tagged {
		r.tags = make([]byte, laneBytes)
		for i := range r.tags {
			r.tags[i] = byte(i * 17)
		}
	}
	return r
}

// ---------------------------------------------------------------------------
// Allocation gates.

// TestWirePathAllocFree pins the tentpole: the server's SUBMIT-fold ingress
// and RESULT fan-out egress allocate nothing at steady state.
func TestWirePathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items by design; zero-alloc contract asserted race-free (plain go test)")
	}
	h, err := newIngestHarness(2048, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer h.s.Close()
	// Warm the pools (mempool blocks, foldTasks, wireBufs) before counting.
	for i := 0; i < 3; i++ {
		if err := h.ingestOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := h.ingestOnce(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("SUBMIT-fold ingress allocates %.1f/op, want 0", n)
	}

	r := newResultRound(7, 64<<10, true)
	conns := make([]net.Conn, 16)
	for i := range conns {
		conns[i] = &discardConn{}
	}
	if err := fanOutOnce(h.s, r, conns); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := fanOutOnce(h.s, r, conns); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("RESULT fan-out allocates %.1f/op, want 0", n)
	}
}

// TestFrameCodecAllocFree covers the fixed-payload encode/decode pairs the
// hot loop touches: staged into pooled scratch, they must not allocate.
func TestFrameCodecAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items by design; zero-alloc contract asserted race-free (plain go test)")
	}
	var scratch [joinPayloadBytes]byte
	h := helloFrame{Version: ProtocolVersion, Scheme: SchemeInt64Sum, Flags: FlagTagged, Elems: 8192, Epoch: 9}
	j := joinFrame{Round: 3, Slot: 1, Group: 8, DeadlineMS: 5000, ChunkBytes: 64 << 10, Epoch: 10}
	sh := submitHeader{Round: 3, Lane: LaneData, Offset: 1 << 20}
	resultPayload := encodeResult(12, make([]byte, 4096), make([]byte, 4096))
	cases := map[string]func(){
		"hello": func() {
			putHello(scratch[:helloPayloadBytes], h)
			if _, err := decodeHello(scratch[:helloPayloadBytes]); err != nil {
				t.Fatal(err)
			}
		},
		"join": func() {
			putJoin(scratch[:joinPayloadBytes], j)
			if _, err := decodeJoin(scratch[:joinPayloadBytes]); err != nil {
				t.Fatal(err)
			}
		},
		"submit-header": func() {
			putSubmitHeader(scratch[:submitHeaderBytes], sh)
			if _, err := decodeSubmitHeader(scratch[:submitHeaderBytes]); err != nil {
				t.Fatal(err)
			}
		},
		"result-decode": func() {
			if _, _, _, _, err := decodeResult(resultPayload); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, fn := range cases {
		fn() // warm up
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s codec pair allocates %.1f/op, want 0", name, n)
		}
	}
	// writeFrame into a pre-grown sink: the vectored emit path itself.
	var sink bytes.Buffer
	payload := make([]byte, 64<<10)
	sink.Grow(len(payload) + 64)
	emit := func() {
		sink.Reset()
		putSubmitHeader(scratch[:submitHeaderBytes], sh)
		if err := writeFrame(&sink, FrameSubmit, scratch[:submitHeaderBytes], payload); err != nil {
			t.Fatal(err)
		}
	}
	emit()
	if n := testing.AllocsPerRun(100, emit); n != 0 {
		t.Errorf("writeFrame allocates %.1f/op, want 0", n)
	}
}

// ---------------------------------------------------------------------------
// Semantics: one encode per round, bit-identical wire bytes.

// TestResultVectorsOneEncode proves the RESULT fan-out performs exactly one
// lane encode per round regardless of participant count: every call hands
// back the same prefix scratch and the accumulators themselves, zero-copy.
func TestResultVectorsOneEncode(t *testing.T) {
	r := newResultRound(42, 4096, true)
	pre0, data0, tagN0, tags0, surv0 := r.resultVectors()
	if surv0 != nil {
		t.Fatalf("complete round carries a survivor trailer: %x", surv0)
	}
	if got := binary.LittleEndian.Uint64(pre0[0:8]); got != 42 {
		t.Fatalf("prefix round = %d, want 42", got)
	}
	if got := binary.LittleEndian.Uint32(pre0[8:12]); int(got) != len(r.data) {
		t.Fatalf("prefix data length = %d, want %d", got, len(r.data))
	}
	if got := binary.LittleEndian.Uint32(tagN0); int(got) != len(r.tags) {
		t.Fatalf("tag length = %d, want %d", got, len(r.tags))
	}
	if &data0[0] != &r.data[0] || &tags0[0] != &r.tags[0] {
		t.Fatal("resultVectors copied a lane; fan-out must reference the accumulators")
	}
	for i := 0; i < 64; i++ { // 64 participants' worth of fan-out calls
		pre, data, tagN, tags, _ := r.resultVectors()
		if &pre[0] != &pre0[0] || &data[0] != &data0[0] || &tagN[0] != &tagN0[0] || &tags[0] != &tags0[0] {
			t.Fatalf("fan-out call %d re-encoded the RESULT", i)
		}
	}
}

// TestResultFanOutBitIdentical proves the server's vectored RESULT — its
// own resultVectors through writeFrame, once per participant — puts exactly
// the staged encoding on the wire: header, then encodeResult's one
// contiguous payload, tagged and untagged.
func TestResultFanOutBitIdentical(t *testing.T) {
	for _, tagged := range []bool{false, true} {
		r := newResultRound(99, 8192, tagged)
		data, tags := r.resultLanes()
		payload := encodeResult(r.id, data, tags)
		want := make([]byte, frameHeaderBytes, frameHeaderBytes+len(payload))
		binary.LittleEndian.PutUint32(want[:4], uint32(len(payload)+1))
		want[4] = byte(FrameResult)
		want = append(want, payload...)
		for conn := 0; conn < 3; conn++ {
			var got bytes.Buffer
			pre, d, tagN, tg, st := r.resultVectors()
			if err := writeFrame(&got, FrameResult, pre, d, tagN, tg, st); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("tagged=%v conn %d: vectored RESULT diverges from the staged encoding", tagged, conn)
			}
		}
	}
}

// fixedSealer submits caller-chosen lane bytes verbatim and captures the
// reduced lanes, so rounds can be driven with known inputs per scheme.
type fixedSealer struct {
	scheme       uint8
	cipher, tags []byte
	gotData      []byte
	gotTags      []byte
}

func (s *fixedSealer) Seal([]int64, uint64) (cipher, tags []byte, err error) {
	return s.cipher, s.tags, nil
}
func (s *fixedSealer) Verify(data, tags []byte) error {
	s.gotData = append([]byte(nil), data...)
	s.gotTags = append([]byte(nil), tags...)
	return nil
}
func (s *fixedSealer) Open([]byte, []int64) error { return nil }
func (s *fixedSealer) Tagged() bool               { return s.tags != nil }
func (s *fixedSealer) Epoch() uint64              { return 0 }
func (s *fixedSealer) SchemeID() uint8            { return s.scheme }

// TestInPlaceFoldBitIdentical runs full rounds through the zero-copy
// gateway — aligned in-place folds, vectored RESULT fan-out — for every
// fold scheme, tagged and untagged, and demands aggregates byte-identical
// to the old path: fold kernels applied to a staged copy of each lane.
func TestInPlaceFoldBitIdentical(t *testing.T) {
	const group, elems = 3, 512
	cases := []struct {
		name   string
		scheme uint8
		tagged bool
	}{
		{"sum", SchemeInt64Sum, false},
		{"sum-tagged", SchemeInt64Sum, true},
		{"prod", SchemeInt64Prod, false},
		{"xor", SchemeInt64Xor, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, l := startPipeServer(t, Config{Group: group, ChunkBytes: 1024})
			lanes := make([]*fixedSealer, group)
			laneBytes := elems * 8
			for i := range lanes {
				lanes[i] = &fixedSealer{scheme: tc.scheme, cipher: make([]byte, laneBytes)}
				for j := range lanes[i].cipher {
					lanes[i].cipher[j] = byte((i + 1) * (j + 13))
				}
				if tc.tagged {
					// Tag lanes carry reduced mod-2^61-1 residues (SumMod61's
					// input contract); unreduced words would make the fold
					// order-sensitive and the comparison meaningless.
					lanes[i].tags = make([]byte, laneBytes)
					for j := 0; j+8 <= laneBytes; j += 8 {
						word := uint64(i+7) * uint64(j+3) * 0x9e3779b9 % ((1 << 61) - 1)
						binary.LittleEndian.PutUint64(lanes[i].tags[j:], word)
					}
				}
			}
			done := make(chan error, group)
			vals := make([]int64, elems)
			for i := range lanes {
				go func(fs *fixedSealer) {
					conn, err := l.Dial()
					if err != nil {
						done <- err
						return
					}
					defer conn.Close()
					c := NewClient(conn, fs, ClientOptions{Timeout: 10 * time.Second})
					out := make([]int64, elems)
					_, err = c.Aggregate(vals, out)
					done <- err
				}(lanes[i])
			}
			for range lanes {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			// The old path: stage a copy of each submitted lane, fold into a
			// fresh identity-seeded accumulator.
			folds := laneFolds[tc.scheme]
			want := make([]byte, laneBytes)
			identitySeed(tc.scheme, want)
			for _, fs := range lanes {
				staged := append([]byte(nil), fs.cipher...)
				folds.data(want, staged)
			}
			var wantTags []byte
			if tc.tagged {
				wantTags = make([]byte, laneBytes)
				for _, fs := range lanes {
					staged := append([]byte(nil), fs.tags...)
					folds.tag(wantTags, staged)
				}
			}
			for i, fs := range lanes {
				if !bytes.Equal(fs.gotData, want) {
					t.Errorf("client %d: in-place fold diverges from staged-copy fold", i)
				}
				if tc.tagged && !bytes.Equal(fs.gotTags, wantTags) {
					t.Errorf("client %d: tag lane diverges from staged-copy fold", i)
				}
			}
		})
	}
}

// coverUplink is echoUplink that also records the coverage the leaf
// declares upstream — the union of its participants' covers.
type coverUplink struct {
	echoUplink
	covers   chan []uint32
	complete chan bool
}

func (u coverUplink) Relay(data, tags []byte, covers []uint32, complete bool) ([]uint32, error) {
	u.covers <- covers
	u.complete <- complete
	return u.echoUplink.Relay(data, tags, covers, complete)
}

// TestLaneLevelClientMatchesAggregate pins that there is one client round
// engine: the same fixed lanes driven through the lane-level Join/Exchange
// (what a federation relay speaks) come back byte-identical to what
// Aggregate hands a sealer's Verify, tagged and untagged, and a Coverage
// passed to Exchange lands on the gateway as that participant's covers.
func TestLaneLevelClientMatchesAggregate(t *testing.T) {
	const group, elems, laneBytes = 2, 300, 300 * 8
	for _, tagged := range []bool{false, true} {
		_, l := startPipeServer(t, Config{Group: group, ChunkBytes: 1024})
		lanes := make([]*fixedSealer, group)
		for i := range lanes {
			lanes[i] = &fixedSealer{scheme: SchemeInt64Sum, cipher: make([]byte, laneBytes)}
			for j := range lanes[i].cipher {
				lanes[i].cipher[j] = byte((i + 3) * (j + 7))
			}
			if tagged {
				lanes[i].tags = make([]byte, laneBytes)
				for j := 0; j+8 <= laneBytes; j += 8 {
					word := uint64(i+5) * uint64(j+1) * 0x9e3779b9 % ((1 << 61) - 1)
					binary.LittleEndian.PutUint64(lanes[i].tags[j:], word)
				}
			}
		}
		// laneRound drives both participants through Join/Exchange against l
		// and returns copies of what each received.
		laneRound := func(l *PipeListener, cov []*Coverage) (data, tags [][]byte) {
			t.Helper()
			data, tags = make([][]byte, group), make([][]byte, group)
			done := make(chan error, group)
			for i := range lanes {
				go func(i int) {
					conn, err := l.Dial()
					if err != nil {
						done <- err
						return
					}
					defer conn.Close()
					conn.SetDeadline(time.Now().Add(10 * time.Second))
					c := NewClient(conn, nil, ClientOptions{})
					tk, err := c.Join(RoundSpec{Scheme: SchemeInt64Sum, Elems: elems, Tagged: tagged, Rank: -1})
					if err != nil {
						done <- err
						return
					}
					if tk.Group != group || tk.Epoch == 0 {
						done <- fmt.Errorf("ticket %+v: want group %d and a non-zero seal epoch", tk, group)
						return
					}
					red, err := c.Exchange(tk, lanes[i].cipher, lanes[i].tags, cov[i])
					if err != nil {
						done <- err
						return
					}
					if red.Survivors != nil {
						done <- fmt.Errorf("complete round named survivors %v", red.Survivors)
						return
					}
					data[i] = append([]byte(nil), red.Data...)
					tags[i] = append([]byte(nil), red.Tags...)
					done <- nil
				}(i)
			}
			for range lanes {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			return data, tags
		}

		done := make(chan error, group)
		for _, fs := range lanes {
			go func(fs *fixedSealer) {
				conn, err := l.Dial()
				if err != nil {
					done <- err
					return
				}
				defer conn.Close()
				c := NewClient(conn, fs, ClientOptions{Timeout: 10 * time.Second})
				_, err = c.Aggregate(make([]int64, elems), make([]int64, elems))
				done <- err
			}(fs)
		}
		for range lanes {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		data, tags := laneRound(l, make([]*Coverage, group))
		for i, fs := range lanes {
			if len(fs.gotData) != laneBytes || !bytes.Equal(data[i], fs.gotData) {
				t.Errorf("tagged=%v participant %d: Exchange data lane differs from Aggregate's", tagged, i)
			}
			if !bytes.Equal(tags[i], fs.gotTags) || (len(tags[i]) != 0) != tagged {
				t.Errorf("tagged=%v participant %d: Exchange tag lane differs from Aggregate's", tagged, i)
			}
		}

		// Coverage: a leaf forwards the union of its participants' covers
		// upstream, so what Relay is handed is what Exchange declared.
		up := coverUplink{covers: make(chan []uint32, 1), complete: make(chan bool, 1)}
		_, leaf := startPipeServer(t, Config{Group: group, ChunkBytes: 1024,
			Uplink: func(int) (UplinkRound, error) { return up, nil }})
		cdata, _ := laneRound(leaf, []*Coverage{{Ranks: []uint32{4, 1}, Complete: true}, {Ranks: []uint32{9}, Complete: true}})
		if got := <-up.covers; !reflect.DeepEqual(got, []uint32{1, 4, 9}) || !<-up.complete {
			t.Errorf("tagged=%v: leaf relayed coverage %v, want [1 4 9] complete", tagged, got)
		}
		for i := range cdata {
			if !bytes.Equal(cdata[i], data[i]) {
				t.Errorf("tagged=%v participant %d: SURVIVORS frame changed the reduced lane", tagged, i)
			}
		}
	}
}

// TestClientReadBufReuse pins the client ingest: sequential rounds on one
// client reuse a single high-water read buffer, and a ReadBufPool recycles
// it across client lifetimes.
func TestClientReadBufReuse(t *testing.T) {
	_, l := startPipeServer(t, Config{Group: 1, ChunkBytes: 4096})
	c := dialPipe(t, l, ClientOptions{})
	vals := make([]int64, 1024)
	out := make([]int64, 1024)
	for i := range vals {
		vals[i] = int64(i)
	}
	if _, err := c.Aggregate(vals, out); err != nil {
		t.Fatal(err)
	}
	buf0 := &c.rbuf[0]
	high := cap(c.rbuf)
	for i := 0; i < 3; i++ {
		if _, err := c.Aggregate(vals, out); err != nil {
			t.Fatal(err)
		}
		if &c.rbuf[0] != buf0 || cap(c.rbuf) != high {
			t.Fatalf("round %d reallocated the read buffer", i)
		}
	}
}

// ---------------------------------------------------------------------------
// BenchmarkWirePath: throughput and allocs/op of the gateway's three hot
// loops (CI runs it as a smoke).

func BenchmarkWirePath(b *testing.B) {
	const elems, chunk = 8192, 16 << 10 // 64 KiB lane in 4 chunks
	b.Run("submit-fold", func(b *testing.B) {
		h, err := newIngestHarness(elems, chunk)
		if err != nil {
			b.Fatal(err)
		}
		defer h.s.Close()
		for i := 0; i < 3; i++ {
			if err := h.ingestOnce(); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(elems * 8))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := h.ingestOnce(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("result-fanout", func(b *testing.B) {
		s, err := NewServer(Config{Group: 2})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		r := newResultRound(5, 64<<10, false)
		conns := make([]net.Conn, 64)
		for i := range conns {
			conns[i] = &discardConn{}
		}
		if err := fanOutOnce(s, r, conns); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(conns) * (frameHeaderBytes + 16 + len(r.data))))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fanOutOnce(s, r, conns); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("client-read", func(b *testing.B) {
		var frame bytes.Buffer
		payload := make([]byte, 64<<10)
		if err := writeFrame(&frame, FrameResult, payload); err != nil {
			b.Fatal(err)
		}
		conn := &replayConn{stream: frame.Bytes()}
		c := NewClient(conn, nil, ClientOptions{})
		b.SetBytes(int64(frame.Len()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			conn.Rewind()
			if _, _, err := c.readFrameReuse(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
