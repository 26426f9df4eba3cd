package aggsvc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hear"
	"hear/internal/homac"
	"hear/internal/mpi"
)

// Degraded-round end-to-end coverage: a gateway running DegradedRounds
// completes over the surviving participant set when stragglers die
// post-JOIN, the RESULT names the survivor union, and the survivors'
// sealers cancel exactly the missing ranks' noise. The root hear package is
// imported here (it structurally implements the Sealer interfaces without
// depending on this package), so these tests exercise the full crypto
// stack: telescoping noise, shared-group key derivation, HoMAC subset
// verification.

// newDegradedSealers builds a shared-group-key world of size participants.
// seed != 0 attaches a shared HoMAC verifier (Int64Sum only).
func newDegradedSealers(t *testing.T, size int, kind hear.SchemeKind, seed uint64) []*hear.GatewaySealer {
	t.Helper()
	w := mpi.NewWorld(size)
	ctxs, err := hear.Init(w, hear.Options{SharedGroupKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	var verifier *homac.Vector
	if seed != 0 {
		if verifier, err = hear.NewVerifier(seed); err != nil {
			t.Fatal(err)
		}
	}
	sealers := make([]*hear.GatewaySealer, size)
	for i, c := range ctxs {
		if sealers[i], err = c.NewGatewaySealerScheme(kind, verifier); err != nil {
			t.Fatal(err)
		}
		if !sealers[i].AcceptsDegraded() {
			t.Fatalf("shared-group sealer %d does not accept degraded rounds", i)
		}
	}
	return sealers
}

// joinThenDie connects a participant that says HELLO, reads its JOIN, and
// then fails per kill: "silent" never submits a byte (and reads out its
// eventual ABORT), "disconnect" closes the connection outright. Runs on a
// victim goroutine, so failures are returned, not fataled.
func joinThenDie(l *PipeListener, h helloFrame, kill string) (*AbortError, error) {
	conn, err := l.Dial()
	if err != nil {
		return nil, err
	}
	if err := writeFrame(conn, FrameHello, encodeHello(h)); err != nil {
		conn.Close()
		return nil, err
	}
	ft, p, err := readFrame(conn, DefaultMaxFrameBytes)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if ft != FrameJoin {
		conn.Close()
		return nil, fmt.Errorf("victim expected JOIN, got %s", ft)
	}
	if _, err := decodeJoin(p); err != nil {
		conn.Close()
		return nil, err
	}
	if kill == "disconnect" {
		conn.Close()
		return nil, nil
	}
	// Silent: park until the gateway delivers the eviction ABORT.
	defer conn.Close()
	ft, p, err = readFrame(conn, DefaultMaxFrameBytes)
	if err != nil {
		return nil, err
	}
	if ft != FrameAbort {
		return nil, fmt.Errorf("victim expected ABORT, got %s", ft)
	}
	return decodeAbort(p)
}

// TestDegradedRoundSurvivorsComplete is the tentpole scenario over the full
// crypto stack: one participant of four dies after JOIN, the gateway
// degrades at the deadline, and the three survivors receive a verified
// aggregate equal to the plaintext fold over exactly their inputs — for
// every gateway-foldable scheme, with the victim either going silent or
// dropping its connection mid-round.
func TestDegradedRoundSurvivorsComplete(t *testing.T) {
	const clients, victim, elems = 4, 1, 257
	cases := []struct {
		name   string
		kind   hear.SchemeKind
		scheme uint8
		seed   uint64 // 0 = untagged
		fold   func(acc, v int64) int64
		unit   int64
	}{
		{"sum-verified", hear.Int64Sum, SchemeInt64Sum, 0xdead5, func(a, v int64) int64 { return a + v }, 0},
		{"prod", hear.Int64Prod, SchemeInt64Prod, 0, func(a, v int64) int64 { return int64(uint64(a) * uint64(v)) }, 1},
		{"xor", hear.Int64Xor, SchemeInt64Xor, 0, func(a, v int64) int64 { return a ^ v }, 0},
	}
	for _, tc := range cases {
		for _, kill := range []string{"silent", "disconnect"} {
			t.Run(tc.name+"/"+kill, func(t *testing.T) {
				sealers := newDegradedSealers(t, clients, tc.kind, tc.seed)
				inputs := make([][]int64, clients)
				want := make([]int64, elems) // plaintext fold over the survivors only
				for j := range want {
					want[j] = tc.unit
				}
				for i := range inputs {
					inputs[i] = make([]int64, elems)
					for j := range inputs[i] {
						inputs[i][j] = int64((i+2)*(j+3)) - 41
						if i != victim {
							want[j] = tc.fold(want[j], inputs[i][j])
						}
					}
				}

				s, l := startPipeServer(t, Config{
					Group:          clients,
					Quorum:         clients - 1,
					DegradedRounds: true,
					RoundTimeout:   500 * time.Millisecond,
					Logf:           t.Logf,
				})

				victimFlags := FlagDegradedOK
				if tc.seed != 0 {
					victimFlags |= FlagTagged
				}
				type victimResult struct {
					aerr *AbortError
					err  error
				}
				victimDone := make(chan victimResult, 1)
				go func() {
					aerr, err := joinThenDie(l, helloFrame{
						Version: ProtocolVersion, Scheme: tc.scheme, Flags: victimFlags,
						Elems: elems, Epoch: sealers[victim].Epoch(), Rank: victim,
					}, kill)
					victimDone <- victimResult{aerr, err}
				}()

				outs := make([][]int64, clients)
				rounds := make([]Round, clients)
				errs := make([]error, clients)
				var wg sync.WaitGroup
				for i := 0; i < clients; i++ {
					if i == victim {
						continue
					}
					conn, err := l.Dial()
					if err != nil {
						t.Fatal(err)
					}
					c := NewClient(conn, sealers[i], ClientOptions{Timeout: 10 * time.Second})
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						defer c.Close()
						outs[i] = make([]int64, elems)
						rounds[i], errs[i] = c.Aggregate(inputs[i], outs[i])
					}(i)
				}
				wg.Wait()

				vr := <-victimDone
				if vr.err != nil {
					t.Fatalf("victim: %v", vr.err)
				}
				if kill == "silent" && (vr.aerr == nil || vr.aerr.Code != AbortStraggler) {
					t.Fatalf("victim abort = %v, want %s", vr.aerr, AbortStraggler)
				}
				wantSurv := []int{0, 2, 3}
				for i := 0; i < clients; i++ {
					if i == victim {
						continue
					}
					if errs[i] != nil {
						t.Fatalf("survivor %d: %v", i, errs[i])
					}
					if !rounds[i].Degraded {
						t.Fatalf("survivor %d round not marked degraded", i)
					}
					if len(rounds[i].Survivors) != len(wantSurv) {
						t.Fatalf("survivor %d survivor set %v, want %v", i, rounds[i].Survivors, wantSurv)
					}
					for k, rk := range wantSurv {
						if rounds[i].Survivors[k] != rk {
							t.Fatalf("survivor %d survivor set %v, want %v", i, rounds[i].Survivors, wantSurv)
						}
					}
					for j := range want {
						if outs[i][j] != want[j] {
							t.Fatalf("survivor %d elem %d = %d, want %d (plaintext fold over survivors)",
								i, j, outs[i][j], want[j])
						}
					}
				}
				// The eviction counter for a disconnected victim increments
				// asynchronously, when the gateway's delivery to the dead
				// connection fails — possibly after the survivors' rounds
				// have already returned. Poll briefly instead of racing it.
				var m map[string]uint64
				for deadline := time.Now().Add(5 * time.Second); ; {
					m = s.StatsMap()
					if m["clients_evicted"] == 1 || time.Now().After(deadline) {
						break
					}
					time.Sleep(10 * time.Millisecond)
				}
				if m["rounds_degraded"] != 1 {
					t.Errorf("rounds_degraded = %d, want 1", m["rounds_degraded"])
				}
				if m["clients_evicted"] != 1 {
					t.Errorf("clients_evicted = %d, want 1", m["clients_evicted"])
				}
				waitLanesHome(t, s) // accumulators and every survivor's stages
			})
		}
	}
}

// TestDegradedFallsBackWhenSurvivorCannotOpen: when a delivered participant
// is not degraded-capable (no shared-group keys, so its HELLO carries no
// FlagDegradedOK), the gateway must not ship it a partial aggregate it
// cannot decrypt — the deadline falls back to the evict-and-retry straggler
// cut instead.
func TestDegradedFallsBackWhenSurvivorCannotOpen(t *testing.T) {
	const clients, elems = 2, 16
	// Per-rank keys: AcceptsDegraded is false, so the client never sets the flag.
	w := mpi.NewWorld(clients)
	ctxs, err := hear.Init(w, hear.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sealer, err := ctxs[0].NewGatewaySealerScheme(hear.Int64Sum, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sealer.AcceptsDegraded() {
		t.Fatal("per-rank-key sealer claims degraded capability")
	}

	s, l := startPipeServer(t, Config{
		Group:          clients,
		Quorum:         1,
		DegradedRounds: true,
		RoundTimeout:   400 * time.Millisecond,
		Logf:           t.Logf,
	})

	go joinThenDie(l, helloFrame{
		Version: ProtocolVersion, Scheme: SchemeInt64Sum,
		Elems: elems, Epoch: sealer.Epoch(), Rank: 1,
	}, "disconnect")

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn, sealer, ClientOptions{Timeout: 10 * time.Second})
	defer c.Close()
	out := make([]int64, elems)
	_, err = c.Aggregate(make([]int64, elems), out)
	var aerr *AbortError
	if !errors.As(err, &aerr) || aerr.Code != AbortStraggler {
		t.Fatalf("flagless survivor got %v, want %s", err, AbortStraggler)
	}
	if got := s.StatsMap()["rounds_degraded"]; got != 0 {
		t.Errorf("rounds_degraded = %d, want 0 (round must not degrade past a survivor without FlagDegradedOK)", got)
	}
}

// TestHostileEpochCostsBoundedTime: a JOIN epoch is bytes from the wire —
// any one participant sets it through the max-of-HELLOs rule. A hand-driven
// participant advertising an absurd epoch must cost the honest client's
// sealer a prompt, non-retryable refusal, not a catch-up loop no connection
// deadline can interrupt.
func TestHostileEpochCostsBoundedTime(t *testing.T) {
	const elems = 16
	w := mpi.NewWorld(2)
	ctxs, err := hear.Init(w, hear.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sealer := ctxs[0].NewGatewaySealer(nil)
	before := sealer.Epoch()
	_, l := startPipeServer(t, Config{Group: 2, Logf: t.Logf})

	go joinThenDie(l, helloFrame{Version: ProtocolVersion, Scheme: SchemeInt64Sum,
		Elems: elems, Epoch: 1 << 60, Rank: 1}, "silent")

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn, sealer, ClientOptions{Timeout: 10 * time.Second})
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Aggregate(make([]int64, elems), make([]int64, elems))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("round sealed at a runaway epoch")
		}
		if retryable(err) {
			t.Errorf("runaway-epoch refusal %v is retryable; re-rounding cannot fix it", err)
		}
		if got := sealer.Epoch(); got != before {
			t.Errorf("sealer epoch = %d after the refusal, want %d (key must not move)", got, before)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Aggregate still spinning 5 s after a hostile participant named epoch 2^60")
	}

	// The wrap-around twin: max(HELLO epochs)+1 would be 0, which tells a
	// sealer "advance exactly once" — refused at admission.
	hconn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer hconn.Close()
	h := helloFrame{Version: ProtocolVersion, Scheme: SchemeInt64Sum, Elems: elems, Epoch: ^uint64(0), Rank: 1}
	if err := writeFrame(hconn, FrameHello, encodeHello(h)); err != nil {
		t.Fatal(err)
	}
	ft, p, err := readFrame(hconn, DefaultMaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if ft != FrameAbort {
		t.Fatalf("HELLO at epoch 2^64-1 got %s, want ABORT", ft)
	}
	if aerr, err := decodeAbort(p); err != nil || aerr.Code != AbortProtocol {
		t.Errorf("HELLO at epoch 2^64-1 got (%v, %v), want %s", aerr, err, AbortProtocol)
	}
}

// TestDegradedRequiresQuorum: DegradedRounds without a quorum policy is a
// config error — degrading is quorum-gated by design.
func TestDegradedRequiresQuorum(t *testing.T) {
	if _, err := NewServer(Config{Group: 3, DegradedRounds: true}); err == nil {
		t.Fatal("DegradedRounds without Quorum accepted")
	}
	if _, err := NewServer(Config{Group: 3, Quorum: 2, DegradedRounds: true}); err != nil {
		t.Fatalf("DegradedRounds with quorum rejected: %v", err)
	}
}

// TestAbortReleasesTimer pins the early-end resource release: a round that
// aborts before its deadline must stop and drop its timer and release its
// participant references immediately, not when the deadline would have
// fired.
func TestAbortReleasesTimer(t *testing.T) {
	m := &roundManager{group: 2, timeout: time.Hour, chunk: DefaultChunkBytes, open: map[int]*roundState{}}
	p := roundParams{scheme: SchemeInt64Sum, elems: 8}
	ca, _ := net.Pipe()
	defer ca.Close()
	r, _, _, aerr := m.join(ca, p, 1, 0, partMeta{rank: -1})
	if aerr != nil {
		t.Fatal(aerr)
	}
	r.mu.Lock()
	if r.timer == nil {
		t.Fatal("open round has no deadline timer")
	}
	r.mu.Unlock()
	r.abort(AbortShutdown, "test teardown")
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.timer != nil {
		t.Error("aborted round still holds its deadline timer")
	}
	if r.parts != nil {
		t.Error("aborted round still holds participant references")
	}
}
