package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// traced is one stretch of rounds run under the recorder.
type traced struct {
	phase      *phase
	rounds     []roundTimes
	delta      map[string]float64 // the fixture's counters: after minus before
	typedP50MS float64            // the untraced stretch's median round latency
}

// perRound is the median over the traced rounds of pick.
func (tr *traced) perRound(pick func(*roundTimes) float64) float64 {
	v := make([]float64, len(tr.rounds))
	for i := range tr.rounds {
		v[i] = pick(&tr.rounds[i])
	}
	return median(v)
}

// busyMS is a span name's summed duration per round.
func (tr *traced) busyMS(name string) float64 {
	return tr.perRound(func(r *roundTimes) float64 { return float64(r.busy[name]) / 1e6 })
}

// selfMS is the time per round attributed to a span name and nothing below it.
func (tr *traced) selfMS(name string) float64 {
	return tr.perRound(func(r *roundTimes) float64 { return float64(r.self[name]) / 1e6 })
}

// count is how many spans of a name a round has.
func (tr *traced) count(name string) float64 {
	return tr.perRound(func(r *roundTimes) float64 { return float64(r.n[name]) })
}

// Shares of -seconds a traced run gives to its stretches; the rest goes to
// the ceilings and the layers' standalone measurements.
const (
	untracedShare   = 0.4
	tracedShare     = 0.4
	standaloneShare = 0.05
)

// runTraced measures the per-layer metrics: an untraced stretch (the
// baseline for trace.overhead_pct and the process diagnostics), the same
// rounds under the recorder, then each layer and the box on their own.
func runTraced(cfg config, fx fixture, warmup int, warm *phase, limit time.Duration,
	m map[string]float64, out io.Writer) (plain, under *phase, err error) {
	share := func(s float64) time.Duration { return time.Duration(s * float64(limit)) }

	plain = runPhase(fx.participants(), warmup, 0, share(untracedShare))
	if plain.err != nil {
		return plain, nil, nil // run reports the phase's own error
	}
	rec := newRecorder()
	if err := fx.enableTrace(rec); err != nil {
		return plain, nil, err
	}
	before := fx.counters()
	under = runPhase(fx.participants(), warmup+plain.rounds, 0, share(tracedShare))
	if under.err != nil {
		return plain, under, nil
	}
	tr := &traced{phase: under, rounds: analyse(rec.spans), delta: fx.counters(), typedP50MS: plain.latencyMS(0.5)}
	for k, v := range before {
		tr.delta[k] -= v
	}
	if len(tr.rounds) == 0 {
		return plain, under, fmt.Errorf("the recorder saw no complete round")
	}
	if cfg.traceOut != "" {
		if err := rec.writeTo(cfg.traceOut); err != nil {
			return plain, under, err
		}
	}

	fx.layers(m, tr)
	if err := fx.standalone(m, share(standaloneShare)); err != nil {
		return plain, under, err
	}
	if err := ceilings(m); err != nil {
		return plain, under, err
	}

	wall := tr.busyMS(spanRound)
	var rows []string
	seen := map[string]bool{}
	for _, r := range tr.rounds {
		for name := range r.self {
			if !seen[name] {
				seen[name] = true
				rows = append(rows, name)
			}
		}
	}
	sort.Strings(rows)
	var sum float64
	for _, name := range rows {
		sum += tr.selfMS(name)
	}
	m["hear.unattributed_ms"] = tr.selfMS(spanRound)
	m["trace.budget_closure_pct"] = 100 * sum / wall
	m["trace.overhead_pct"] = 100 * (1 - under.roundsPerSecond()/plain.roundsPerSecond())
	if p := m["mpi.plain_allreduce_ms"]; p > 0 {
		m["hear.overhead_ratio"] = tr.typedP50MS / p
	}
	if c := m["ceil.aes_ctr_gbps"]; c > 0 {
		m["prf.efficiency_pct"] = 100 * m["prf.keystream_gbps"] / c
	}
	if c := m["ceil.loopback_writev_gbps"]; c > 0 {
		m["wire.efficiency_pct"] = 100 * m["wire.echo_gbps"] / c
	}

	// Process diagnostics come from the untraced stretch.
	n := float64(plain.rounds)
	m["proc.cpu_ms"] = float64(plain.cpu[1]-plain.cpu[0]) / 1e6 / n
	m["proc.peak_rss_mb"] = peakRSSMB()
	m["proc.allocs"] = float64(plain.mem[1].Mallocs-plain.mem[0].Mallocs) / n
	m["proc.gc_cycles"] = float64(plain.mem[1].NumGC-plain.mem[0].NumGC) / n
	m["proc.gc_pause_ms"] = float64(plain.mem[1].PauseTotalNs-plain.mem[0].PauseTotalNs) / 1e6 / n
	m["lat.p90_ms"] = plain.latencyMS(0.9)
	m["lat.p99_ms"] = plain.latencyMS(0.99)
	m["lat.samples"] = float64(plain.timed)
	st := fx.setup()
	m["setup.init_ms"] = float64(st.init) / 1e6
	m["setup.connect_ms"] = float64(st.connect) / 1e6
	if warm.rounds > 0 {
		m["setup.warmup_ms"] = float64(warm.ends[warm.rounds-1]) / 1e6
	}

	fmt.Fprintf(out, "%s seed %d: budget of participant 0's round, median of %d traced rounds (untraced p50 %.3f ms over %d)\n",
		cfg.workload.name, cfg.seed, len(tr.rounds), tr.typedP50MS, plain.timed)
	fmt.Fprintf(out, "  %-20s %10s %7s %10s\n", "row", "self ms", "share", "busy ms")
	for _, name := range rows {
		label := name
		if name == spanRound {
			label = "hear.unattributed"
		}
		fmt.Fprintf(out, "  %-20s %10.3f %6.1f%% %10.3f\n", label, tr.selfMS(name), 100*tr.selfMS(name)/wall, tr.busyMS(name))
	}
	fmt.Fprintf(out, "  %-20s %10.3f %6.1f%% of the %.3f ms round wall\n", "sum", sum, m["trace.budget_closure_pct"], wall)
	fmt.Fprintf(out, "  tracing costs %.2f %% of rounds/s\n", m["trace.overhead_pct"])
	printCeilings(out, fx.plainBytes(), m)
	return plain, under, nil
}

// printCeilings sets each kernel and wire row beside what the box allows,
// so that fast reads as a share of the hardware.
func printCeilings(out io.Writer, bytes float64, m map[string]float64) {
	fmt.Fprintf(out, "  box: aes-ctr %.2f GB/s, memmove %.2f GB/s, loopback writev %.2f GB/s, loopback rtt %.1f us\n",
		m["ceil.aes_ctr_gbps"], m["ceil.memmove_gbps"], m["ceil.loopback_writev_gbps"], m["ceil.loopback_rtt_us"])
	pct := func(label string, gbps, ceiling float64, of string) {
		if gbps > 0 && ceiling > 0 {
			fmt.Fprintf(out, "  %-20s %8.3f GB/s = %5.1f %% of %s\n", label, gbps, 100*gbps/ceiling, of)
		}
	}
	pct("prf.keystream", m["prf.keystream_gbps"], m["ceil.aes_ctr_gbps"], "aes-ctr")
	// Kernel rows: plaintext bytes per busy second.
	for _, row := range []string{"core.encrypt", "core.decrypt", "sealer.seal", "sealer.open"} {
		if ms := m[row+"_ms"]; ms > 0 {
			pct(row, bytes/ms/1e6, m["ceil.aes_ctr_gbps"], "aes-ctr")
		}
	}
	if ms := m["core.reduce_ms"]; ms > 0 {
		pct("core.reduce", bytes/ms/1e6, m["ceil.memmove_gbps"], "memmove")
	}
	pct("wire submit..result", m["wire.echo_gbps"], m["ceil.loopback_writev_gbps"], "loopback writev echo")
	if rtt := m["ceil.loopback_rtt_us"]; rtt > 0 && m["wire.join_wait_ms"] > 0 {
		fmt.Fprintf(out, "  %-20s %8.3f ms   = %5.0f loopback round trips\n", "wire.join_wait", m["wire.join_wait_ms"], m["wire.join_wait_ms"]*1e3/rtt)
	}
}

// medianTime runs f reps times and returns the median duration.
func medianTime(reps int, f func()) time.Duration {
	d := make([]float64, reps)
	for i := range d {
		t := time.Now()
		f()
		d[i] = float64(time.Since(t))
	}
	return time.Duration(median(d))
}

// gbps is bytes per d in 10^9 bytes per second.
func gbps(bytes int, d time.Duration) float64 {
	return float64(bytes) / float64(d)
}
