package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"testing"
	"time"
)

// smoke is a run short enough for go test: one second of timed rounds
// after two warm-up rounds.
func smoke(w *workload) config {
	return config{workload: w, seed: 7, seconds: 1, started: time.Now(), warmup: 2, corruptAt: -1}
}

// TestSmoke runs every workload for a second and requires that no round
// failed the correctness gate and that every end-to-end metric came out
// positive (the benchmark contract forbids a metric that can read 0).
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rep, err := run(smoke(w), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 3 {
				t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(endToEnd) {
				t.Fatalf("%d metrics, want the %d end-to-end ones", len(rep.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if v, ok := rep.Metrics[d.name]; !ok || v.Value <= 0 || v.Unit != d.unit {
					t.Errorf("%s = %+v, want a positive value in %s", d.name, v, d.unit)
				}
			}
		})
	}
}

// TestSmokeTraced runs one in-process and one gateway workload under the
// recorder and requires exactly the per-layer names, the facts the budget
// must show without being told, and rows that sum to the round.
func TestSmokeTraced(t *testing.T) {
	positive := map[string][]string{
		"ar_f32_256k": {"core.encrypt_ms", "core.decrypt_ms", "core.reduce_ms", "engine.encrypt_ms",
			"mpi.plain_allreduce_ms", "hear.overhead_ratio", "prf.keystream_gbps", "hfp.share_pct", "ceil.aes_ctr_gbps"},
		"gw_cascade_1m": {"sealer.seal_ms", "sealer.verify_ms", "sealer.open_ms", "homac.tag_ms", "wire.join_wait_ms",
			"wire.result_wait_ms", "wire.bytes_out", "leaf.aggsvc.recv_ms", "leaf.aggsvc.relay_ms", "root.aggsvc.fold_ms",
			"federation.negotiate_ms", "federation.relay_ms", "ceil.loopback_rtt_us", "lat.samples"},
	}
	for name, want := range positive {
		t.Run(name, func(t *testing.T) {
			cfg := smoke(findWorkload(name))
			cfg.trace = true
			cfg.traceOut = t.TempDir() + "/spans.json"
			rep, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Metrics) != len(perLayer) {
				t.Fatalf("%d metrics, want the %d per-layer ones", len(rep.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if _, ok := rep.Metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			for _, n := range want {
				if rep.Metrics[n].Value <= 0 {
					t.Errorf("%s = %v, want > 0 on %s", n, rep.Metrics[n].Value, name)
				}
			}
			if c := rep.Metrics["trace.budget_closure_pct"].Value; c < 80 || c > 120 {
				t.Errorf("budget rows sum to %.1f %% of the round wall", c)
			}
			var spans []span
			raw, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
				t.Fatalf("trace-out holds %d spans: %v", len(spans), err)
			}
		})
	}
}

// TestGateCountsCorruption spoils one reduced element before participant 0
// checks timed round 1: the gate must count exactly that round as failed and
// the run must not report correct.
func TestGateCountsCorruption(t *testing.T) {
	for _, name := range []string{"ar_f32_256k", "gw_small"} {
		cfg := smoke(findWorkload(name))
		cfg.seconds, cfg.corruptAt = 0.2, 1
		rep, err := run(cfg, io.Discard)
		if err == nil || rep == nil {
			t.Fatalf("%s: corrupted run returned report %v, error %v", name, rep, err)
		}
		if rep.Correct || rep.Failed != 1 {
			t.Errorf("%s: correct=%v failed=%d, want one failed round", name, rep.Correct, rep.Failed)
		}
	}
}

// TestBrokenCollectiveStillReports: when a collective fails for one
// participant while its peer waits in the same barrier for good, the phase
// must end and carry its counts instead of hanging until the watchdog.
func TestBrokenCollectiveStillReports(t *testing.T) {
	defer func(d time.Duration) { stallGrace = d }(stallGrace)
	stallGrace = 50 * time.Millisecond
	entered, barrier := make(chan struct{}), make(chan struct{}) // barrier is never released
	parts := []participant{
		func(round int, _ bool) (time.Duration, error) {
			<-entered
			if round == 2 {
				return 0, errors.New("connection reset")
			}
			return time.Millisecond, nil
		},
		func(int, bool) (time.Duration, error) {
			close(entered)
			<-barrier
			return time.Millisecond, nil
		},
	}
	ph := runPhase(parts, 0, 10, 0)
	if !ph.wedged || ph.err == nil || ph.rounds != 3 || ph.failed != 1 {
		t.Errorf("wedged=%v err=%v rounds=%d failed=%d, want a wedged phase of 3 rounds, 1 failed",
			ph.wedged, ph.err, ph.rounds, ph.failed)
	}
}

// TestNamesMatchBenchmarkJSON keeps the harness and BENCHMARK.json in
// step: the same workloads and metrics, in name, unit, direction and bound.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the harness %d", len(got), kind, len(want))
		}
		for i, d := range want {
			if got[i] != (metric{d.name, d.unit, d.better, d.bound}) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %+v", kind, i, got[i], d)
			}
		}
	}
	same("end-to-end", spec.EndToEnd, endToEnd)
	same("per-layer", spec.PerLayer, perLayer)
}

// TestRefusesOneCPU: with one CPU the ranks and the gateway's workers
// time-share a core and the numbers mean something else.
func TestRefusesOneCPU(t *testing.T) {
	if err := checkCPUs(1); err == nil {
		t.Error("one CPU accepted")
	}
	if err := checkCPUs(procs); err != nil {
		t.Error(err)
	}
	if code := realMain([]string{"-workload", "no_such_workload"}, io.Discard); code == 0 {
		t.Error("unknown workload accepted")
	}
}

// TestSelfTime pins the budget arithmetic: a span's self time is its
// duration minus what its children cover, overlapping siblings share the
// overlap, and a round's rows sum to its wall time.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: spanRound, Round: 3, Start: 0, End: 100, Parent: -1},
		{Name: spanMarshal, Round: 3, Start: 10, End: 30, Parent: 0},
		{Name: spanRaw, Round: 3, Start: 30, End: 90, Parent: 0},
		{Name: spanEncrypt, Round: 3, Start: 40, End: 60, Parent: 2},
		{Name: spanEncrypt, Round: 3, Start: 50, End: 70, Parent: 2},
		{Name: spanReduce, Round: 3, Start: 60, End: 80, Parent: 2},
		{Name: spanRound, Round: 4, Start: 100, End: 0, Parent: -1}, // never closed
	}
	rounds := analyse(spans)
	if len(rounds) != 1 {
		t.Fatalf("%d rounds analysed, want 1", len(rounds))
	}
	r := rounds[0]
	want := map[string]int64{spanRound: 20, spanMarshal: 20, spanRaw: 20, spanEncrypt: 25, spanReduce: 15}
	var sum int64
	for name, w := range want {
		if r.self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, r.self[name], w)
		}
		sum += r.self[name]
	}
	if sum != r.wall || r.wall != 100 {
		t.Errorf("rows sum to %d of a %d wall", sum, r.wall)
	}
	if r.busy[spanEncrypt] != 40 || r.n[spanEncrypt] != 2 {
		t.Errorf("encrypt busy %d over %d spans, want 40 over 2", r.busy[spanEncrypt], r.n[spanEncrypt])
	}
}
