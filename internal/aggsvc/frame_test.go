package aggsvc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"time"
)

// encodeResult is the staged form of a RESULT payload — round, then each
// lane copied in behind a u32 length prefix — written independently of the
// server's vectored emit (resultVectors + writeFrame), so the codec tests
// and TestResultFanOutBitIdentical have an oracle for the wire layout.
func encodeResult(round uint64, data, tags []byte) []byte {
	p := make([]byte, 8+4+len(data)+4+len(tags))
	binary.LittleEndian.PutUint64(p[0:], round)
	binary.LittleEndian.PutUint32(p[8:], uint32(len(data)))
	copy(p[12:], data)
	binary.LittleEndian.PutUint32(p[12+len(data):], uint32(len(tags)))
	copy(p[16+len(data):], tags)
	return p
}

// encodeHello, encodeJoin and encodeSubmitHeader are the allocating forms
// of the put* encoders, for tests that speak the protocol by hand; the
// shipped emit paths encode into pooled wireBuf scratch.
func encodeHello(h helloFrame) []byte {
	p := make([]byte, helloPayloadBytes)
	putHello(p, h)
	return p
}

func encodeJoin(j joinFrame) []byte {
	p := make([]byte, joinPayloadBytes)
	putJoin(p, j)
	return p
}

func encodeSubmitHeader(h submitHeader) []byte {
	p := make([]byte, submitHeaderBytes)
	putSubmitHeader(p, h)
	return p
}

// readFrame reads a whole frame into a fresh buffer, for tests that speak
// the protocol by hand.
func readFrame(r io.Reader, max int) (FrameType, []byte, error) {
	t, n, err := readFrameHeader(r, max)
	if err != nil {
		return t, nil, err
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r, p); err != nil {
		return t, nil, err
	}
	return t, p, nil
}

// Every payload codec must round-trip exactly and reject truncated
// buffers with an error, never a panic: the decoders run on bytes an
// untrusted peer framed.

func TestHelloRoundTrip(t *testing.T) {
	cases := []helloFrame{
		// Every hello carries a key-schedule rank (rankUnknown on the wire for -1).
		{Version: ProtocolVersion, Scheme: SchemeInt64Sum, Flags: FlagTagged | FlagDegradedOK, Elems: 8192, Epoch: 7, Rank: 3},
		{Version: ProtocolVersion, Scheme: SchemeInt64Prod, Flags: 0, Elems: 1, Epoch: 2, Rank: -1},
		// The codec is version-agnostic; refusing a foreign version is admit's job.
		{Version: 0xffff, Scheme: SchemeInt64Prod, Flags: 0, Elems: 0, Epoch: math.MaxUint64, Rank: 0},
		{Version: 0, Scheme: SchemeInt64Xor, Flags: 0xff, Elems: math.MaxUint32, Epoch: 0, Rank: -1},
	}
	for _, want := range cases {
		p := encodeHello(want)
		if len(p) != helloPayloadBytes {
			t.Fatalf("HELLO payload %d B, want %d", len(p), helloPayloadBytes)
		}
		got, err := decodeHello(p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round trip %+v -> %+v", want, got)
		}
	}
	for _, n := range []int{0, 1, 15, 16, 17, helloPayloadBytes - 1, helloPayloadBytes + 1} {
		if _, err := decodeHello(make([]byte, n)); err == nil {
			t.Errorf("decodeHello accepted %d B payload", n)
		}
	}
	// The capability is the flag alone.
	if (helloFrame{Version: ProtocolVersion}).degradedOK() {
		t.Error("hello without FlagDegradedOK reported degradedOK")
	}
	if !(helloFrame{Version: ProtocolVersion, Flags: FlagDegradedOK}).degradedOK() {
		t.Error("hello with FlagDegradedOK not reported degradedOK")
	}

	// Against a live server: one version, one HELLO size. A 20-byte HELLO
	// naming version 1 is a version mismatch; the old 16-byte image is
	// malformed.
	expectHelloRefused(t, encodeHello(helloFrame{Version: 1, Scheme: SchemeInt64Sum, Elems: 4, Rank: -1}), AbortVersion)
	expectHelloRefused(t, encodeHello(helloFrame{Version: ProtocolVersion, Scheme: SchemeInt64Sum, Elems: 4})[:16], AbortProtocol)
}

func TestSurvivorsRoundTrip(t *testing.T) {
	cases := []survivorsFrame{
		{Round: 9, Complete: true, Ranks: []uint32{0, 2, 5}},
		{Round: 1, Complete: false, Ranks: []uint32{7}},
		{Round: math.MaxUint64, Complete: true, Ranks: nil},
	}
	for _, want := range cases {
		p := encodeSurvivors(want)
		if len(p) != survivorsHeadBytes+4*len(want.Ranks) {
			t.Fatalf("SURVIVORS payload %d B, want %d", len(p), survivorsHeadBytes+4*len(want.Ranks))
		}
		got, err := decodeSurvivors(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Round != want.Round || got.Complete != want.Complete || !reflect.DeepEqual(got.Ranks, want.Ranks) {
			t.Fatalf("round trip %+v -> %+v", want, got)
		}
		// The rank list length is exact: every strict prefix and any padding
		// must be rejected.
		for n := 0; n < len(p); n++ {
			if _, err := decodeSurvivors(p[:n]); err == nil {
				t.Fatalf("decodeSurvivors accepted %d of %d B", n, len(p))
			}
		}
		if _, err := decodeSurvivors(append(p, 0)); err == nil {
			t.Fatal("decodeSurvivors accepted a padded payload")
		}
	}
	// A declared count overrunning the payload must error, not panic.
	bad := encodeSurvivors(survivorsFrame{Round: 3, Ranks: []uint32{1, 2}})
	bad[9] = 0xff
	if _, err := decodeSurvivors(bad); err == nil {
		t.Error("decodeSurvivors accepted an overrunning rank count")
	}
}

func TestResultV2SurvivorTrailer(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	tags := []byte{9, 10, 11, 12, 13, 14, 15, 16}
	// No trailer: survivors must come back nil (complete aggregate).
	plain := encodeResult(5, data, tags)
	round, d, tg, surv, err := decodeResult(plain)
	if err != nil {
		t.Fatal(err)
	}
	if round != 5 || !bytes.Equal(d, data) || !bytes.Equal(tg, tags) || surv != nil {
		t.Fatalf("complete RESULT decoded (%d, %x, %x, %v)", round, d, tg, surv)
	}
	// With a trailer: survivors decode exactly, tagged and untagged.
	for _, tgs := range [][]byte{tags, nil} {
		want := []uint32{0, 3, 4}
		p := append(encodeResult(7, data, tgs), encodeSurvivorList(want)...)
		round, d, tg, surv, err = decodeResult(p)
		if err != nil {
			t.Fatal(err)
		}
		if round != 7 || !bytes.Equal(d, data) || !bytes.Equal(tg, tgs) || !reflect.DeepEqual(surv, want) {
			t.Fatalf("degraded RESULT decoded (%d, %x, %x, %v)", round, d, tg, surv)
		}
		// Truncating the trailer anywhere must error — a short read cannot
		// silently turn a degraded RESULT into a complete one.
		for n := len(p) - len(encodeSurvivorList(want)) + 1; n < len(p); n++ {
			if _, _, _, _, err := decodeResult(p[:n]); err == nil {
				t.Fatalf("decodeResult accepted %d of %d B", n, len(p))
			}
		}
	}
	// An empty survivor set is malformed: it would claim an aggregate over
	// nobody.
	empty := append(encodeResult(7, data, nil), encodeSurvivorList(nil)...)
	if _, _, _, _, err := decodeResult(empty); err == nil {
		t.Error("decodeResult accepted an empty survivor set")
	}
}

func TestJoinRoundTrip(t *testing.T) {
	cases := []joinFrame{
		{Round: 1, Slot: 0, Group: 8, DeadlineMS: 10_000, ChunkBytes: 64 << 10, Epoch: 3},
		{Round: math.MaxUint64, Slot: math.MaxUint32, Group: 1, DeadlineMS: 0, ChunkBytes: 0, Epoch: math.MaxUint64},
	}
	for _, want := range cases {
		p := encodeJoin(want)
		if len(p) != joinPayloadBytes {
			t.Fatalf("JOIN payload %d B, want %d", len(p), joinPayloadBytes)
		}
		got, err := decodeJoin(p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round trip %+v -> %+v", want, got)
		}
	}
	for _, n := range []int{0, joinPayloadBytes - 1, joinPayloadBytes + 3} {
		if _, err := decodeJoin(make([]byte, n)); err == nil {
			t.Errorf("decodeJoin accepted %d B payload", n)
		}
	}
}

// TestJoinDeadlineClamped: a round whose deadline passes between its seal
// and the JOIN write must advertise 0 ms left, not the ~4.29e9 ms a negative
// duration wraps to in a uint32.
func TestJoinDeadlineClamped(t *testing.T) {
	for _, c := range []struct {
		left time.Duration
		want uint32
	}{
		{10 * time.Second, 10_000},
		{1500 * time.Microsecond, 1},
		{0, 0},
		{-time.Nanosecond, 0},
		{-3 * time.Millisecond, 0},
		{-time.Hour, 0},
	} {
		if got := remainingMS(c.left); got != c.want {
			t.Errorf("remainingMS(%v) = %d, want %d", c.left, got, c.want)
		}
	}
}

func TestSubmitHeaderRoundTrip(t *testing.T) {
	want := submitHeader{Round: 42, Lane: LaneTag, Offset: 1 << 20}
	p := encodeSubmitHeader(want)
	if len(p) != submitHeaderBytes {
		t.Fatalf("SUBMIT header %d B, want %d", len(p), submitHeaderBytes)
	}
	// Chunk bytes follow the header in a real payload; trailing bytes must
	// not disturb the decode.
	got, err := decodeSubmitHeader(append(p, 0xde, 0xad))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip %+v -> %+v", want, got)
	}
	for n := 0; n < submitHeaderBytes; n++ {
		if _, err := decodeSubmitHeader(make([]byte, n)); err == nil {
			t.Errorf("decodeSubmitHeader accepted %d B payload", n)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	cases := []struct {
		round      uint64
		data, tags []byte
	}{
		{7, []byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{9, 10, 11, 12, 13, 14, 15, 16}},
		{0, []byte{0xaa}, nil},
		{math.MaxUint64, nil, nil},
	}
	for _, tc := range cases {
		p := encodeResult(tc.round, tc.data, tc.tags)
		round, data, tags, surv, err := decodeResult(p)
		if err != nil {
			t.Fatal(err)
		}
		if round != tc.round || !bytes.Equal(data, tc.data) || !bytes.Equal(tags, tc.tags) || surv != nil {
			t.Fatalf("round trip (%d, %x, %x) -> (%d, %x, %x)",
				tc.round, tc.data, tc.tags, round, data, tags)
		}
		// The lane lengths are exact, so every strict prefix must be
		// rejected — a short read cannot decode into silently shorter lanes.
		for n := 0; n < len(p); n++ {
			if _, _, _, _, err := decodeResult(p[:n]); err == nil {
				t.Fatalf("decodeResult accepted %d of %d B", n, len(p))
			}
		}
	}
	// A declared lane length pointing past the payload must not panic.
	bad := encodeResult(1, []byte{1, 2, 3, 4}, nil)
	bad[8] = 0xff // data lane claims 255 B
	if _, _, _, _, err := decodeResult(bad); err == nil {
		t.Error("decodeResult accepted an overrunning data lane")
	}
}

func TestAbortRoundTrip(t *testing.T) {
	want := &AbortError{Round: 9, Code: AbortUpstream, Msg: "upstream tier unreachable"}
	got, err := decodeAbort(encodeAbort(want))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("round trip %+v -> %+v", want, got)
	}
	// Messages are capped on encode; a declared length past the payload is
	// clamped on decode instead of read out of bounds.
	long := &AbortError{Round: 1, Code: AbortDeadline, Msg: string(make([]byte, 1<<13))}
	p := encodeAbort(long)
	if len(p) != 12+1<<12 {
		t.Fatalf("oversized abort message not capped: %d B payload", len(p))
	}
	clamped, err := decodeAbort(p[:20])
	if err != nil {
		t.Fatal(err)
	}
	if len(clamped.Msg) != 8 {
		t.Fatalf("clamped message %d B, want 8", len(clamped.Msg))
	}
	for n := 0; n < 12; n++ {
		if _, err := decodeAbort(make([]byte, n)); err == nil {
			t.Errorf("decodeAbort accepted %d B payload", n)
		}
	}
}

func TestStatsRoundTrip(t *testing.T) {
	want := map[string]uint64{
		"rounds_completed": 12,
		"cohorts":          4,
		"bytes_folded":     1 << 30,
	}
	keys := []string{"bytes_folded", "cohorts", "rounds_completed"}
	p := encodeStats(want, keys)
	got, err := decodeStats(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip %v -> %v", want, got)
	}
	for n := 0; n < len(p); n++ {
		if _, err := decodeStats(p[:n]); err == nil {
			t.Fatalf("decodeStats accepted %d of %d B", n, len(p))
		}
	}
}

func TestFrameHeaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, FrameSubmit, []byte{1, 2, 3}, []byte{4, 5}); err != nil {
		t.Fatal(err)
	}
	ft, n, err := readFrameHeader(&buf, DefaultMaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if ft != FrameSubmit || n != 5 {
		t.Fatalf("header (%v, %d), want (SUBMIT, 5)", ft, n)
	}
	// Oversized frames are rejected by declared length, before any payload
	// byte is consumed.
	buf.Reset()
	if err := writeFrame(&buf, FrameResult, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	var tooBig *ErrFrameTooLarge
	if _, _, err := readFrameHeader(&buf, 64); !errors.As(err, &tooBig) {
		t.Fatalf("oversized frame got %v, want ErrFrameTooLarge", err)
	}
	// A zero-length body (no type byte counted) is malformed.
	if _, _, err := readFrameHeader(bytes.NewReader([]byte{0, 0, 0, 0, 1}), 64); err == nil {
		t.Error("zero-length frame accepted")
	}
}

// The fuzz targets pin the decoders' only contract on adversarial bytes:
// no panics, no out-of-bounds, and anything that decodes re-encodes
// consistently. `go test` runs the seed corpus; `go test -fuzz` explores.

func FuzzDecodeHello(f *testing.F) {
	f.Add(encodeHello(helloFrame{Version: ProtocolVersion, Scheme: SchemeInt64Sum, Elems: 4, Epoch: 1}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		h, err := decodeHello(p)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeHello(h), p) {
			t.Fatalf("decode/encode not idempotent for %x", p)
		}
	})
}

func FuzzDecodeJoin(f *testing.F) {
	f.Add(encodeJoin(joinFrame{Round: 3, Group: 2, ChunkBytes: 1 << 16, Epoch: 9}))
	f.Add(make([]byte, joinPayloadBytes-1))
	f.Fuzz(func(t *testing.T, p []byte) {
		j, err := decodeJoin(p)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeJoin(j), p) {
			t.Fatalf("decode/encode not idempotent for %x", p)
		}
	})
}

func FuzzDecodeSurvivors(f *testing.F) {
	f.Add(encodeSurvivors(survivorsFrame{Round: 1, Complete: true, Ranks: []uint32{0, 2}}))
	f.Add(encodeSurvivors(survivorsFrame{Round: 9, Complete: false}))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, p []byte) {
		s, err := decodeSurvivors(p)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeSurvivors(s), p) {
			t.Fatalf("decode/encode not idempotent for %x", p)
		}
	})
}

func FuzzDecodeSubmitHeader(f *testing.F) {
	f.Add(encodeSubmitHeader(submitHeader{Round: 1, Lane: LaneData, Offset: 0}))
	f.Add(make([]byte, submitHeaderBytes+64))
	f.Fuzz(func(t *testing.T, p []byte) {
		h, err := decodeSubmitHeader(p)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeSubmitHeader(h), p[:submitHeaderBytes]) {
			t.Fatalf("decode/encode not idempotent for %x", p)
		}
	})
}

func FuzzDecodeResult(f *testing.F) {
	f.Add(encodeResult(5, []byte{1, 2, 3, 4}, []byte{5, 6, 7, 8}))
	f.Add(encodeResult(0, nil, nil))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(append(encodeResult(7, []byte{1, 2, 3, 4}, nil), encodeSurvivorList([]uint32{0, 3})...))
	f.Fuzz(func(t *testing.T, p []byte) {
		round, data, tags, surv, err := decodeResult(p)
		if err != nil {
			return
		}
		// The layout is exact (no slack anywhere, trailer included), so what
		// decodes re-encodes to the very same bytes.
		q := encodeResult(round, data, tags)
		if surv != nil {
			q = append(q, encodeSurvivorList(surv)...)
		}
		if !bytes.Equal(q, p) {
			t.Fatalf("re-encode of decoded RESULT diverged: %x -> %x", p, q)
		}
	})
}

func FuzzDecodeAbort(f *testing.F) {
	f.Add(encodeAbort(&AbortError{Round: 1, Code: AbortProtocol, Msg: "x"}))
	f.Add(make([]byte, 12))
	f.Fuzz(func(t *testing.T, p []byte) {
		e, err := decodeAbort(p)
		if err != nil {
			return
		}
		if len(e.Msg) > len(p) {
			t.Fatalf("decoded message longer than payload: %d > %d", len(e.Msg), len(p))
		}
	})
}

func FuzzDecodeStats(f *testing.F) {
	f.Add(encodeStats(map[string]uint64{"a": 1, "bb": 2}, []string{"a", "bb"}))
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := decodeStats(p)
		if err != nil {
			return
		}
		// Each decoded entry consumed >= 9 bytes after the count prefix.
		if len(m) > 0 && len(p) < 2+9*1 {
			t.Fatalf("%d entries decoded from %d B", len(m), len(p))
		}
	})
}
