package federation_test

import (
	"errors"
	"fmt"
	"net"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hear"
	"hear/internal/aggsvc"
	"hear/internal/aggsvc/federation"
	"hear/internal/homac"
	"hear/internal/metrics"
	"hear/internal/mpi"
)

// newSealers builds size gateway participants sharing one Init world under
// the given scheme. seed != 0 attaches a shared HoMAC verifier (Int64Sum
// only — tags aggregate linearly).
func newSealers(t *testing.T, size int, kind hear.SchemeKind, seed uint64) []*hear.GatewaySealer {
	t.Helper()
	w := mpi.NewWorld(size)
	ctxs, err := hear.Init(w, hear.Options{})
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
	}
	return sealers
}

// roundRobin assigns arriving connections to cohorts in rotation. Pipe
// connections all share the remote address "pipe", so the production
// host-hash policy cannot spread them; any balanced assignment yields the
// same aggregate (the folds are commutative across the whole client set).
func roundRobin(cohorts int) func(net.Addr) int {
	var n atomic.Int64
	return func(net.Addr) int { return int((n.Add(1) - 1) % int64(cohorts)) }
}

// startTier launches one gateway tier on an in-process pipe listener.
func startTier(t *testing.T, cfg aggsvc.Config) *aggsvc.PipeListener {
	t.Helper()
	s, err := aggsvc.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := aggsvc.NewPipeListener()
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return l
}

// uplinkTo wires a downstream tier to the given upstream listener.
func uplinkTo(t *testing.T, l *aggsvc.PipeListener, tier int, reg *metrics.Registry) aggsvc.UplinkDialer {
	t.Helper()
	u, err := federation.New(federation.Config{
		Dial:    l.Dial,
		Timeout: 30 * time.Second,
		Tier:    tier,
		Metrics: reg,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return u.Dialer()
}

// runClients drives every sealer through `rounds` aggregation rounds
// against the listener and returns the final round's outputs.
func runClients(t *testing.T, l *aggsvc.PipeListener, sealers []*hear.GatewaySealer, inputs [][]int64, rounds int) ([][]int64, []error) {
	t.Helper()
	n := len(sealers)
	outs := make([][]int64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		conn, err := l.Dial()
		if err != nil {
			t.Fatal(err)
		}
		c := aggsvc.NewClient(conn, sealers[i], aggsvc.ClientOptions{Timeout: 30 * time.Second})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer c.Close()
			outs[i] = make([]int64, len(inputs[i]))
			for r := 0; r < rounds; r++ {
				if _, err := c.Aggregate(inputs[i], outs[i]); err != nil {
					errs[i] = fmt.Errorf("round %d: %w", r, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	return outs, errs
}

// TestFederationTwoTierBitIdentical is the acceptance scenario: for each
// gateway-foldable scheme, the same client set aggregates through a
// 2-tier federation (leaf gateway with 3 cohorts cascading into a root)
// and through a flat gateway; the decrypted aggregates must be
// bit-identical to each other and to the plaintext reference, and both
// topologies must land on the same seal epoch.
func TestFederationTwoTierBitIdentical(t *testing.T) {
	const clients, cohorts, elems, rounds = 6, 3, 257, 2
	cases := []struct {
		name string
		kind hear.SchemeKind
		seed uint64 // 0 = untagged
		fold func(acc, v int64) int64
		unit int64
	}{
		{"sum-verified", hear.Int64Sum, 0xfed5, func(a, v int64) int64 { return a + v }, 0},
		{"prod", hear.Int64Prod, 0, func(a, v int64) int64 { return int64(uint64(a) * uint64(v)) }, 1},
		{"xor", hear.Int64Xor, 0, func(a, v int64) int64 { return a ^ v }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inputs := make([][]int64, clients)
			want := make([]int64, elems)
			for j := range want {
				want[j] = tc.unit
			}
			for i := range inputs {
				inputs[i] = make([]int64, elems)
				for j := range inputs[i] {
					// Mixed signs and parities; exact for all three folds.
					inputs[i][j] = int64((i+2)*(j+3)) - 41
					want[j] = tc.fold(want[j], inputs[i][j])
				}
			}

			// Federated: leaf (3 cohorts of 2) cascading into a root of 3.
			rootL := startTier(t, aggsvc.Config{Group: cohorts, Logf: t.Logf})
			leafL := startTier(t, aggsvc.Config{
				Group:    clients / cohorts,
				Cohorts:  cohorts,
				CohortBy: roundRobin(cohorts),
				Uplink:   uplinkTo(t, rootL, 0, nil),
				Logf:     t.Logf,
			})
			fedSealers := newSealers(t, clients, tc.kind, tc.seed)
			fedOuts, errs := runClients(t, leafL, fedSealers, inputs, rounds)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("federated client %d: %v", i, err)
				}
			}

			// Flat: the same client set against one gateway.
			flatL := startTier(t, aggsvc.Config{Group: clients, Logf: t.Logf})
			flatSealers := newSealers(t, clients, tc.kind, tc.seed)
			flatOuts, errs := runClients(t, flatL, flatSealers, inputs, rounds)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("flat client %d: %v", i, err)
				}
			}

			for i := 0; i < clients; i++ {
				for j := 0; j < elems; j++ {
					if fedOuts[i][j] != want[j] {
						t.Fatalf("federated client %d elem %d = %d, want %d", i, j, fedOuts[i][j], want[j])
					}
					if fedOuts[i][j] != flatOuts[i][j] {
						t.Fatalf("client %d elem %d: federated %d != flat %d", i, j, fedOuts[i][j], flatOuts[i][j])
					}
				}
			}
			// The cascade applies the max+1 epoch rule exactly once, at the
			// root, so both topologies advance the key schedule identically.
			if fe, fl := fedSealers[0].Epoch(), flatSealers[0].Epoch(); fe != fl {
				t.Fatalf("seal epoch diverged: federated %d, flat %d", fe, fl)
			}
		})
	}
}

// TestFederationThreeTier cascades through leaf → middle → root (8 clients,
// 4 leaf cohorts, 2 middle cohorts) with verification on, and checks the
// per-tier federation metrics.
func TestFederationThreeTier(t *testing.T) {
	const clients, elems, rounds = 8, 33, 2
	reg := metrics.New()
	rootL := startTier(t, aggsvc.Config{Group: 2, Logf: t.Logf})
	midL := startTier(t, aggsvc.Config{
		Group: 2, Cohorts: 2, CohortBy: roundRobin(2),
		Uplink: uplinkTo(t, rootL, 1, reg), Logf: t.Logf,
	})
	leafL := startTier(t, aggsvc.Config{
		Group: 2, Cohorts: 4, CohortBy: roundRobin(4),
		Uplink: uplinkTo(t, midL, 0, reg), Logf: t.Logf,
	})

	sealers := newSealers(t, clients, hear.Int64Sum, 0x3f3d)
	inputs := make([][]int64, clients)
	want := make([]int64, elems)
	for i := range inputs {
		inputs[i] = make([]int64, elems)
		for j := range inputs[i] {
			inputs[i][j] = int64(i*100+j) - 250
			want[j] += inputs[i][j]
		}
	}
	outs, errs := runClients(t, leafL, sealers, inputs, rounds)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := range outs {
		for j := range outs[i] {
			if outs[i][j] != want[j] {
				t.Fatalf("client %d elem %d = %d, want %d", i, j, outs[i][j], want[j])
			}
		}
	}

	m := reg.Map()
	if got := m[`hear_federation_upstream_rounds_total{tier="0"}`]; got != 4*rounds {
		t.Errorf("leaf upstream rounds = %v, want %d", got, 4*rounds)
	}
	if got := m[`hear_federation_upstream_rounds_total{tier="1"}`]; got != 2*rounds {
		t.Errorf("middle upstream rounds = %v, want %d", got, 2*rounds)
	}
	for _, tier := range []string{"0", "1"} {
		if got := m[`hear_federation_upstream_failures_total{tier="`+tier+`"}`]; got != 0 {
			t.Errorf("tier %s failures = %v, want 0", tier, got)
		}
		// A tier closes its uplink (and drops the gauge) after the RESULT
		// fan-out its clients return on, so the gauge may trail them briefly.
		inflight := `hear_federation_upstream_inflight{tier="` + tier + `"}`
		for deadline := time.Now().Add(2 * time.Second); reg.Map()[inflight] != 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if got := reg.Map()[inflight]; got != 0 {
			t.Errorf("tier %s inflight = %v, want 0", tier, got)
		}
	}
}

// TestFederationJoinWakeRace is the two-tier half of aggsvc's
// TestJoinWakeRace: at a leaf the seal epoch is fixed by the runCascade
// goroutine when the upstream JOIN arrives, so that wake races four
// handlers that are parked in (or still entering) their JOIN wait, and the
// root's own fill wake races the leaf's two uplink connections. 500
// back-to-back verified rounds over pipes and over loopback TCP must
// complete on both tiers without one abort, eviction or relay failure: a
// lost wake would hang a round into its deadline, a stale poke would kill a
// healthy connection's next read.
func TestFederationJoinWakeRace(t *testing.T) {
	const clients, cohorts, elems, rounds = 4, 2, 16, 500
	for _, tcp := range []bool{false, true} {
		name := "pipe"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			// serve starts one tier and returns how to reach it.
			serve := func(s *aggsvc.Server) func() (net.Conn, error) {
				t.Cleanup(func() { s.Close() })
				if !tcp {
					l := aggsvc.NewPipeListener()
					go s.Serve(l)
					return l.Dial
				}
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go s.Serve(l)
				return func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) }
			}
			root, err := aggsvc.NewServer(aggsvc.Config{Group: cohorts})
			if err != nil {
				t.Fatal(err)
			}
			up, err := federation.New(federation.Config{Dial: serve(root), Timeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			leaf, err := aggsvc.NewServer(aggsvc.Config{
				Group: clients / cohorts, Cohorts: cohorts, CohortBy: roundRobin(cohorts), Uplink: up.Dialer(),
			})
			if err != nil {
				t.Fatal(err)
			}
			dial := serve(leaf)

			sealers := newSealers(t, clients, hear.Int64Sum, 0x51ee)
			var wg sync.WaitGroup
			for i, sealer := range sealers {
				conn, err := dial()
				if err != nil {
					t.Fatal(err)
				}
				c := aggsvc.NewClient(conn, sealer, aggsvc.ClientOptions{Timeout: 30 * time.Second})
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					defer c.Close()
					in, out := make([]int64, elems), make([]int64, elems)
					for j := range in {
						in[j] = int64(i*elems + j)
					}
					for r := 0; r < rounds; r++ {
						if _, err := c.Aggregate(in, out); err != nil {
							t.Errorf("client %d round %d: %v", i, r, err)
							return
						}
					}
					for j := range out {
						// Σ_i (i·elems + j) over the four clients.
						if want := int64(elems*clients*(clients-1)/2 + clients*j); out[j] != want {
							t.Errorf("client %d elem %d = %d, want %d", i, j, out[j], want)
							return
						}
					}
				}(i)
			}
			wg.Wait()

			for _, tier := range []struct {
				name      string
				s         *aggsvc.Server
				completed uint64
			}{{"leaf", leaf, cohorts * rounds}, {"root", root, rounds}} {
				m := tier.s.StatsMap()
				if m["rounds_completed"] != tier.completed || m["rounds_aborted"] != 0 ||
					m["clients_evicted"] != 0 || m["relay_failures"] != 0 {
					t.Errorf("%s: completed %d (want %d), aborted %d, evicted %d, relay failures %d",
						tier.name, m["rounds_completed"], tier.completed, m["rounds_aborted"],
						m["clients_evicted"], m["relay_failures"])
				}
			}
		})
	}
}

// severPostJoin wraps a client connection so its first write after any
// successful read fails and drops the connection — the client writes only
// HELLO before reading JOIN, so this deterministically kills a participant
// at its first post-JOIN SUBMIT byte.
type severPostJoin struct {
	net.Conn
	reads atomic.Int64
}

func (c *severPostJoin) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

func (c *severPostJoin) Write(p []byte) (int, error) {
	if c.reads.Load() > 0 {
		c.Conn.Close()
		return 0, errors.New("severed post-JOIN")
	}
	return c.Conn.Write(p)
}

// TestFederationDegradedSurvivorUnion drives a dropout through a 2-tier
// federation: one client of a leaf cohort dies at its first post-JOIN
// SUBMIT byte, the cohort degrades at its deadline and relays a partial
// fold (complete=false) upstream, the root completes its round but names
// the global survivor union, and that union propagates back down so every
// surviving client — including those of the *complete* sibling cohort —
// cancels exactly the dead rank's noise. The decrypted aggregates must
// equal the plaintext fold over the survivor inputs for every
// gateway-foldable scheme.
func TestFederationDegradedSurvivorUnion(t *testing.T) {
	const clients, cohorts, elems, victim = 4, 2, 129, 2
	cases := []struct {
		name string
		kind hear.SchemeKind
		seed uint64
		fold func(acc, v int64) int64
		unit int64
	}{
		{"sum-verified", hear.Int64Sum, 0xd39a, func(a, v int64) int64 { return a + v }, 0},
		{"prod", hear.Int64Prod, 0, func(a, v int64) int64 { return int64(uint64(a) * uint64(v)) }, 1},
		{"xor", hear.Int64Xor, 0, func(a, v int64) int64 { return a ^ v }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.New()
			root, err := aggsvc.NewServer(aggsvc.Config{
				Group: cohorts, Quorum: 1, DegradedRounds: true, Logf: t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			rootL := aggsvc.NewPipeListener()
			go root.Serve(rootL)
			t.Cleanup(func() { root.Close() })
			leaf, err := aggsvc.NewServer(aggsvc.Config{
				Group:          clients / cohorts,
				Cohorts:        cohorts,
				CohortBy:       roundRobin(cohorts),
				Quorum:         1,
				DegradedRounds: true,
				RoundTimeout:   600 * time.Millisecond,
				Uplink:         uplinkTo(t, rootL, 0, reg),
				Logf:           t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			leafL := aggsvc.NewPipeListener()
			go leaf.Serve(leafL)
			t.Cleanup(func() { leaf.Close() })

			// Shared-group keys: every survivor can derive the dead rank's
			// noise stream.
			w := mpi.NewWorld(clients)
			ctxs, err := hear.Init(w, hear.Options{SharedGroupKeys: true})
			if err != nil {
				t.Fatal(err)
			}
			var verifier *homac.Vector
			if tc.seed != 0 {
				if verifier, err = hear.NewVerifier(tc.seed); err != nil {
					t.Fatal(err)
				}
			}
			sealers := make([]*hear.GatewaySealer, clients)
			for i, c := range ctxs {
				if sealers[i], err = c.NewGatewaySealerScheme(tc.kind, verifier); err != nil {
					t.Fatal(err)
				}
			}

			inputs := make([][]int64, clients)
			want := make([]int64, elems)
			for j := range want {
				want[j] = tc.unit
			}
			for i := range inputs {
				inputs[i] = make([]int64, elems)
				for j := range inputs[i] {
					inputs[i][j] = int64((i+3)*(j+5)) - 77
					if i != victim {
						want[j] = tc.fold(want[j], inputs[i][j])
					}
				}
			}

			// Dial in rank order so roundRobin pairs (0,2) and (1,3) into
			// cohorts; rank `victim` shares its cohort with rank 0.
			outs := make([][]int64, clients)
			rounds := make([]aggsvc.Round, clients)
			errs := make([]error, clients)
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				conn, err := leafL.Dial()
				if err != nil {
					t.Fatal(err)
				}
				if i == victim {
					conn = &severPostJoin{Conn: conn}
				}
				c := aggsvc.NewClient(conn, sealers[i], aggsvc.ClientOptions{Timeout: 30 * time.Second})
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					defer c.Close()
					outs[i] = make([]int64, elems)
					rounds[i], errs[i] = c.Aggregate(inputs[i], outs[i])
				}(i)
			}
			wg.Wait()

			if errs[victim] == nil {
				t.Fatal("severed victim's Aggregate succeeded")
			}
			wantSurv := []int{0, 1, 3}
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
				if fmt.Sprint(rounds[i].Survivors) != fmt.Sprint(wantSurv) {
					t.Fatalf("survivor %d survivor set %v, want %v", i, rounds[i].Survivors, wantSurv)
				}
				for j := range want {
					if outs[i][j] != want[j] {
						t.Fatalf("survivor %d elem %d = %d, want %d (plaintext fold over survivors)",
							i, j, outs[i][j], want[j])
					}
				}
			}
			if got := root.StatsMap()["rounds_degraded"]; got != 1 {
				t.Errorf("root rounds_degraded = %d, want 1", got)
			}
			// Both leaf cohorts' rounds end degraded: the victim's by local
			// eviction, the sibling's by the global survivor union its relay
			// brought back down.
			if got := leaf.StatsMap()["rounds_degraded"]; got != 2 {
				t.Errorf("leaf rounds_degraded = %d, want 2", got)
			}
			m := reg.Map()
			if got := m[`hear_federation_partial_relays_total{tier="0"}`]; got != 1 {
				t.Errorf("partial relays = %v, want 1", got)
			}
			if got := m[`hear_federation_rounds_degraded_total{tier="0"}`]; got != 2 {
				t.Errorf("degraded downlinks = %v, want 2", got)
			}
		})
	}
}

// TestFederationUpstreamDialAbort pins the typed failure path: when the
// upstream tier is unreachable, the leaf's clients get AbortUpstream — a
// retryable, diagnosable code — not a hang or a generic protocol error.
func TestFederationUpstreamDialAbort(t *testing.T) {
	const clients = 2
	reg := metrics.New()
	u, err := federation.New(federation.Config{
		Dial:        func() (net.Conn, error) { return nil, errors.New("connection refused") },
		DialRetry:   2,
		DialBackoff: time.Millisecond,
		Tier:        0,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	leafL := startTier(t, aggsvc.Config{Group: clients, Uplink: u.Dialer(), Logf: t.Logf})

	sealers := newSealers(t, clients, hear.Int64Sum, 0)
	inputs := [][]int64{make([]int64, 8), make([]int64, 8)}
	_, errs := runClients(t, leafL, sealers, inputs, 1)
	for i, err := range errs {
		var aerr *aggsvc.AbortError
		if !errors.As(err, &aerr) || aerr.Code != aggsvc.AbortUpstream {
			t.Errorf("client %d got %v, want AbortUpstream", i, err)
		}
	}
	m := reg.Map()
	if got := m[`hear_federation_upstream_dial_retries_total{tier="0"}`]; got != 2 {
		t.Errorf("dial retries = %v, want 2", got)
	}
	if got := m[`hear_federation_upstream_failures_total{tier="0"}`]; got != 1 {
		t.Errorf("upstream failures = %v, want 1", got)
	}
}

// TestFederationWedgedRootUnwinds pins the watcher path: a root that
// accepts the uplink HELLO but can never fill its round must not wedge the
// leaf — the leaf's own deadline aborts the round, the abort closes the
// pending upstream exchange, and every client unblocks well before the
// upstream timeout.
func TestFederationWedgedRootUnwinds(t *testing.T) {
	const clients = 2
	// Root requires 2 cohort partials but only one leaf cohort exists, so
	// its round can never fill.
	rootL := startTier(t, aggsvc.Config{Group: 2, RoundTimeout: time.Minute, Logf: t.Logf})
	leafL := startTier(t, aggsvc.Config{
		Group:        clients,
		RoundTimeout: 400 * time.Millisecond,
		Uplink:       uplinkTo(t, rootL, 0, nil),
		Logf:         t.Logf,
	})
	sealers := newSealers(t, clients, hear.Int64Sum, 0)
	inputs := [][]int64{make([]int64, 4), make([]int64, 4)}
	start := time.Now()
	_, errs := runClients(t, leafL, sealers, inputs, 1)
	elapsed := time.Since(start)
	for i, err := range errs {
		var aerr *aggsvc.AbortError
		if !errors.As(err, &aerr) {
			t.Errorf("client %d got %v, want a typed abort", i, err)
		}
	}
	if elapsed > 10*time.Second {
		t.Fatalf("leaf took %v to unwind from a wedged root", elapsed)
	}
}

// TestFederationKeyBlind extends the gateway's central security property
// to the cascade: the federation package relays sealed lanes between tiers
// and must never link key material — not the hear root package, not
// internal/keys, not internal/homac.
func TestFederationKeyBlind(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool unavailable: %v", err)
	}
	out, err := exec.Command(goBin, "list", "-deps", "hear/internal/aggsvc/federation").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		if dep == "hear" || dep == "hear/internal/keys" || dep == "hear/internal/homac" {
			t.Errorf("federation depends on key-bearing package %q", dep)
		}
	}
}

// TestFederationSchemeIDMapping pins the structural contract between the
// root package's GatewaySealer (which cannot import the gateway) and the
// wire scheme identifiers the gateway dispatches folds on.
func TestFederationSchemeIDMapping(t *testing.T) {
	w := mpi.NewWorld(1)
	ctxs, err := hear.Init(w, hear.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind hear.SchemeKind
		want uint8
	}{
		{hear.Int64Sum, aggsvc.SchemeInt64Sum},
		{hear.Int64Prod, aggsvc.SchemeInt64Prod},
		{hear.Int64Xor, aggsvc.SchemeInt64Xor},
	} {
		g, err := ctxs[0].NewGatewaySealerScheme(tc.kind, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.SchemeID(); got != tc.want {
			t.Errorf("%s: SchemeID = %d, want %d", tc.kind, got, tc.want)
		}
	}
	// Non-foldable kinds and tagged non-sum schemes are refused up front.
	if _, err := ctxs[0].NewGatewaySealerScheme(hear.Float64Sum, nil); err == nil {
		t.Error("Float64Sum accepted as a gateway scheme")
	}
	v, err := hear.NewVerifier(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctxs[0].NewGatewaySealerScheme(hear.Int64Prod, v); err == nil {
		t.Error("verifier accepted for a non-additive scheme")
	}
}
