package hear

import (
	"hear/internal/engine"
	"hear/internal/metrics"
)

// ctxMetrics bundles the instruments a Context touches on its data paths.
// Every Context holds one; with Options.Metrics unset the instruments are
// nil and their methods no-op, so the call sites stay unconditional and
// the disabled cost is a dead branch per operation.
type ctxMetrics struct {
	syncCalls      *metrics.Counter // hear_allreduce_total{path="sync"}
	pipelinedCalls *metrics.Counter // hear_allreduce_total{path="pipelined"}
	incCalls       *metrics.Counter // hear_allreduce_total{path="inc"}
	plainBytes     *metrics.Counter // hear_allreduce_plain_bytes_total
	callSeconds    *metrics.Histogram

	// One attempt counter per rung of the verified-retry ladder, indexed
	// by verifyPath (vpINC, vpHostPipelined, vpHostSync).
	verifiedAttempts [3]*metrics.Counter
	verifiedRetries  *metrics.Counter
	verifiedFailures *metrics.Counter

	sealOps        *metrics.Counter // hear_gateway_seal_total
	openOps        *metrics.Counter // hear_gateway_open_total
	verifyFailures *metrics.Counter // hear_gateway_verify_failures_total
}

// newCtxMetrics registers the context instruments on r. Instruments are
// interned by (name, labels), so the contexts of one Init world share
// counters — the registry reports communicator-wide totals, matching the
// shared cipher engine.
func newCtxMetrics(r *metrics.Registry) *ctxMetrics {
	m := &ctxMetrics{
		syncCalls:      r.Counter("hear_allreduce_total", metrics.Labels{"path": "sync"}),
		pipelinedCalls: r.Counter("hear_allreduce_total", metrics.Labels{"path": "pipelined"}),
		incCalls:       r.Counter("hear_allreduce_total", metrics.Labels{"path": "inc"}),
		plainBytes:     r.Counter("hear_allreduce_plain_bytes_total", nil),
		callSeconds:    r.Histogram("hear_allreduce_seconds", nil, metrics.DurationBuckets),

		verifiedRetries:  r.Counter("hear_verified_retries_total", nil),
		verifiedFailures: r.Counter("hear_verified_failures_total", nil),

		sealOps:        r.Counter("hear_gateway_seal_total", nil),
		openOps:        r.Counter("hear_gateway_open_total", nil),
		verifyFailures: r.Counter("hear_gateway_verify_failures_total", nil),
	}
	for p := vpINC; p <= vpHostSync; p++ {
		m.verifiedAttempts[p] = r.Counter("hear_verified_attempts_total",
			metrics.Labels{"path": p.String()})
	}
	return m
}

// registerTelemetry publishes the externally owned stats of one
// communicator — the cipher engine's shard phases and each context's
// pipeline mempool — as a snapshot-time Source, so the subsystems keep
// their own accounting and the registry reads it on Gather instead of
// double-counting. A nil registry is a no-op.
func registerTelemetry(r *metrics.Registry, eng *engine.Engine, ctxs []*Context) {
	if r == nil {
		return
	}
	r.RegisterSource(func(emit func(metrics.Sample)) {
		emit(metrics.Sample{Name: "hear_engine_workers", Kind: metrics.KindGauge,
			Value: float64(eng.Workers())})
		phases := eng.Phases().Snapshot()
		for _, p := range phases.Phases() {
			labels := metrics.Labels{"phase": p}
			emit(metrics.Sample{Name: "hear_engine_phase_seconds_total", Labels: labels,
				Kind: metrics.KindCounter, Value: phases.Sum(p).Seconds()})
			emit(metrics.Sample{Name: "hear_engine_phase_ops_total", Labels: labels,
				Kind: metrics.KindCounter, Value: float64(phases.Count(p))})
		}

		// Mempool counters summed across the world's contexts: the
		// registry namespace is per communicator, like the engine.
		var poolHits, poolMisses, poolWaits uint64
		var poolAllocated int
		for _, c := range ctxs {
			if c.pool != nil {
				h, m, a := c.pool.Stats()
				poolHits += h
				poolMisses += m
				poolAllocated += a
				poolWaits += c.pool.Waits()
			}
		}
		counter := func(name string, v uint64) {
			emit(metrics.Sample{Name: name, Kind: metrics.KindCounter, Value: float64(v)})
		}
		counter("hear_mempool_hits_total", poolHits)
		counter("hear_mempool_misses_total", poolMisses)
		counter("hear_mempool_waits_total", poolWaits)
		emit(metrics.Sample{Name: "hear_mempool_allocated_blocks", Kind: metrics.KindGauge,
			Value: float64(poolAllocated)})
	})
}
