package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"hear"
	"hear/internal/aggsvc"
	"hear/internal/aggsvc/federation"
	"hear/internal/homac"
	"hear/internal/keys"
	"hear/internal/metrics"
	"hear/internal/mpi"
)

// gatewayClients is fixed for the same reason as allreduceRanks.
const gatewayClients = 4

// verifierKey is the HoMAC verification key Z every client shares.
const verifierKey = 0xbe7c

// gatewayFixture is the out-of-process shape: gatewayClients clients over
// loopback TCP running verified int64-SUM rounds against a flat gateway,
// or against a leaf gateway (2 cohorts of 2) that relays to a root.
type gatewayFixture struct {
	elems   int
	front   *aggsvc.Server // the gateway the clients dial: flat, or the cascade's leaf
	root    *aggsvc.Server // the leaf's upstream; nil on the flat gateway
	serving sync.WaitGroup
	addr    string            // front's
	reg     *metrics.Registry // the uplink's hear_federation_* series
	sealers []*hear.GatewaySealer
	clients []*aggsvc.Client
	gates   []*gate[int64]
	times   setupTimes

	mu     sync.Mutex
	cohort map[string]int // client address as the leaf sees it → cohort

	rec  *recorder   // nil until enableTrace
	conn *tracedConn // under client 0 once tracing
}

func newGateway(env *env, elems int, cascade bool) (fixture, error) {
	t0 := time.Now()
	f := &gatewayFixture{elems: elems, reg: metrics.New(), cohort: map[string]int{}}
	ctxs, err := hear.Init(mpi.NewWorld(gatewayClients), hear.Options{})
	if err != nil {
		return nil, err
	}
	verifier, err := hear.NewVerifier(verifierKey)
	if err != nil {
		return nil, err
	}
	front := aggsvc.Config{Group: gatewayClients}
	if cascade {
		var rootAddr string
		if f.root, rootAddr, err = f.serve(aggsvc.Config{Group: 2}); err != nil {
			return nil, err
		}
		up, err := federation.New(federation.Config{Addr: rootAddr, Metrics: f.reg})
		if err != nil {
			f.close()
			return nil, err
		}
		front = aggsvc.Config{Group: 2, Cohorts: 2, CohortBy: f.cohortOf, Uplink: up.Dialer()}
	}
	if f.front, f.addr, err = f.serve(front); err != nil {
		f.close()
		return nil, err
	}
	f.times.init = time.Since(t0)

	t0 = time.Now()
	in := newInputs(env.seed, elems, gatewayClients)
	for i, ctx := range ctxs {
		f.sealers = append(f.sealers, ctx.NewGatewaySealer(verifier))
		conn, err := f.dial(i)
		if err != nil {
			f.close()
			return nil, err
		}
		f.clients = append(f.clients, aggsvc.NewClient(conn, f.sealers[i], aggsvc.ClientOptions{}))
		g := newGate(in, int64Sum, i)
		g.corruptAt = env.corruptAt
		f.gates = append(f.gates, g)
	}
	f.times.connect = time.Since(t0)
	return f, nil
}

// serve starts a gateway on a fresh loopback port and returns it with its
// address.
func (f *gatewayFixture) serve(cfg aggsvc.Config) (*aggsvc.Server, string, error) {
	s, err := aggsvc.NewServer(cfg)
	if err != nil {
		return nil, "", err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, "", err
	}
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		if err := s.Serve(l); err != nil && !errors.Is(err, aggsvc.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "e2e: gateway stopped serving:", err)
		}
	}()
	return s, l.Addr().String(), nil
}

// dial connects client i and pins its connection to cohort i/2. All
// clients share one host, so the gateway's address hash would put them in
// one cohort.
func (f *gatewayFixture) dial(i int) (net.Conn, error) {
	conn, err := net.Dial("tcp", f.addr)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.cohort[conn.LocalAddr().String()] = i / 2
	f.mu.Unlock()
	return conn, nil
}

func (f *gatewayFixture) cohortOf(remote net.Addr) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cohort[remote.String()]
}

func (f *gatewayFixture) setup() setupTimes { return f.times }

func (f *gatewayFixture) plainBytes() float64 { return float64(f.elems * 8) }

// close drops the clients, stops the gateways and waits for their accept
// loops and connection handlers to end.
func (f *gatewayFixture) close() {
	for _, c := range f.clients {
		c.Close()
	}
	for _, s := range []*aggsvc.Server{f.front, f.root} {
		if s != nil {
			s.Close()
		}
	}
	f.serving.Wait()
}

func (f *gatewayFixture) participants() []participant {
	parts := make([]participant, len(f.clients))
	for i := range parts {
		g := f.gates[i]
		parts[i] = func(round int, full bool) (time.Duration, error) {
			g.prepare(round)
			traced := i == 0 && f.rec != nil
			var root int
			if traced {
				root = f.rec.begin(spanRound, round)
				f.conn.beginRound()
			}
			t := time.Now()
			_, err := f.clients[i].Aggregate(g.send, g.out)
			lat := time.Since(t)
			if traced {
				f.rec.end(root)
			}
			if err != nil {
				return lat, err
			}
			return lat, g.verify(round, full)
		}
	}
	return parts
}

// enableTrace reconnects client 0 through the conn and sealer decorators.
// The untraced phases never see them: a wrapped conn costs the client its
// vectored writes, which is tracing overhead, not the program's behaviour.
func (f *gatewayFixture) enableTrace(rec *recorder) error {
	f.clients[0].Close()
	conn, err := f.dial(0)
	if err != nil {
		return err
	}
	f.rec, f.conn = rec, &tracedConn{Conn: conn, rec: rec}
	f.clients[0] = aggsvc.NewClient(f.conn, &tracedSealer{Sealer: f.sealers[0], rec: rec}, aggsvc.ClientOptions{})
	return nil
}

// counters flattens every gateway's StatsMap under its role prefix, plus
// the uplink's registry and the wire totals under client 0.
func (f *gatewayFixture) counters() map[string]float64 {
	m := f.reg.Map()
	role := "aggsvc."
	if f.root != nil {
		role = "leaf.aggsvc."
		for k, v := range f.root.StatsMap() {
			m["root.aggsvc."+k] = float64(v)
		}
	}
	for k, v := range f.front.StatsMap() {
		m[role+k] = float64(v)
	}
	if f.conn != nil {
		m["wire.bytes_out"] = float64(f.conn.bytesOut)
		m["wire.bytes_in"] = float64(f.conn.bytesIn)
		m["wire.submitted"] = float64(f.conn.submitted)
	}
	return m
}

func (f *gatewayFixture) layers(m map[string]float64, tr *traced) {
	rounds := float64(tr.phase.rounds)
	for _, name := range []string{spanSeal, spanVerify, spanOpen, spanJoinWait, spanResultWait, spanSubmitWrite} {
		m[name+"_ms"] = tr.busyMS(name)
	}
	m["wire.bytes_out"] = tr.delta["wire.bytes_out"] / rounds
	m["wire.bytes_in"] = tr.delta["wire.bytes_in"] / rounds
	// The lanes go up and come back reduced, as in the loopback echo that is
	// this row's ceiling: bytes submitted over first SUBMIT byte to last
	// RESULT byte.
	if ms := m["wire.submit_write_ms"] + m["wire.result_wait_ms"] + tr.busyMS(spanResultRead); ms > 0 {
		m["wire.echo_gbps"] = tr.delta["wire.submitted"] / rounds / ms / 1e6
	}
	for _, role := range serverRoles {
		for _, d := range serverMetrics {
			switch phase, timed := strings.CutSuffix(d.name, "_ms"); {
			case timed:
				m[role+d.name] = tr.delta[role+"phase_ns_"+phase] / 1e6 / rounds
			case d.name == "rounds_aborted" || d.name == "clients_evicted":
				m[role+d.name] = tr.delta[role+d.name] // totals over the traced stretch; both should stay 0
			default:
				m[role+d.name] = tr.delta[role+d.name] / rounds
			}
		}
	}
	const tier = `{tier="0"}`
	if n := tr.delta["hear_federation_negotiate_seconds"+tier+"_count"]; n > 0 {
		m["federation.negotiate_ms"] = tr.delta["hear_federation_negotiate_seconds"+tier+"_sum"] * 1e3 / n
	}
	if n := tr.delta["hear_federation_relay_seconds"+tier+"_count"]; n > 0 {
		m["federation.relay_ms"] = tr.delta["hear_federation_relay_seconds"+tier+"_sum"] * 1e3 / n
	}
	m["federation.upstream_failures"] = tr.delta["hear_federation_upstream_failures_total"+tier]
}

// standalone times HoMAC tagging and verification on their own at the
// round's vector length, over lanes that verify (Verify stops at the first
// bad element).
func (f *gatewayFixture) standalone(m map[string]float64, _ time.Duration) error {
	states, err := keys.Generate(gatewayClients, keys.Config{})
	if err != nil {
		return err
	}
	v, err := homac.New(hear.HoMACPrime, verifierKey)
	if err != nil {
		return err
	}
	cipher := make([]uint64, f.elems)
	sum := make([]uint64, f.elems)
	tags := make([]uint64, f.elems)
	sigma := make([]uint64, f.elems)
	for r, st := range states {
		for j := range cipher {
			cipher[j] = mix(uint64(r)<<32 | uint64(j))
			sum[j] += cipher[j]
		}
		if err := v.Tag(st, cipher, sigma); err != nil {
			return err
		}
		v.Aggregate(tags, sigma)
	}
	m["homac.tag_ms"] = medianTime(5, func() { err = v.Tag(states[0], cipher, sigma) }).Seconds() * 1e3
	if err != nil {
		return err
	}
	bad := -1
	m["homac.verify_ms"] = medianTime(5, func() { bad = v.Verify(states[0], sum, tags, gatewayClients) }).Seconds() * 1e3
	if bad >= 0 {
		return fmt.Errorf("standalone HoMAC lanes fail verification at element %d", bad)
	}
	return nil
}
