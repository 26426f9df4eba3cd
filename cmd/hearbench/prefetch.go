package main

import (
	"fmt"
	"time"

	"hear"
	"hear/internal/chaos"
	"hear/internal/metrics"
	"hear/internal/mpi"
	"hear/internal/prf"
)

// prefetchExp measures what the noise prefetch engine buys on a steady
// Allreduce train: the same collective is timed with NoisePrefetch off and
// on over a link with a per-message delivery delay (a chaos FaultDelay
// rule standing in for network latency), so the run has a real
// communication window to hide next-epoch keystream generation in. It
// emits BENCH_prefetch.json with per-backend wall times, cold/warm hit
// rates, and the relative speedup.
//
// Backend choice decides the ceiling: under software ChaCha20, keystream
// generation dominates host-side cost and the overlap removes most of it;
// under hardware AES-CTR, generation is a few percent of wall time on this
// train and the measured gap sits inside run-to-run noise.

const (
	prefetchElems  = 64 << 10 // 512 KiB messages
	prefetchRanks  = 2
	prefetchDelay  = 2 * time.Millisecond
	prefetchBudget = 16 << 20
)

type prefetchRow struct {
	Backend        string  `json:"backend"`
	OffNsPerCall   float64 `json:"off_ns_per_call"`
	OnNsPerCall    float64 `json:"on_ns_per_call"`
	OffNsPerElem   float64 `json:"off_ns_per_elem"`
	OnNsPerElem    float64 `json:"on_ns_per_elem"`
	ColdHitRate    float64 `json:"cold_hit_rate"`
	WarmHitRate    float64 `json:"warm_hit_rate"`
	SpeedupPercent float64 `json:"speedup_percent"`
	// Metrics is the prefetch-on run's registry snapshot (internal/metrics
	// Map form: name{labels} → value) — the same counters `hearagg serve
	// -admin` exposes on /metrics, so a benchmark row and a live scrape
	// can be compared number for number.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type prefetchReport struct {
	Experiment   string        `json:"experiment"`
	Ranks        int           `json:"ranks"`
	Elems        int           `json:"elems"`
	MessageBytes int           `json:"message_bytes"`
	DelayUS      float64       `json:"delay_us"`
	BudgetBytes  int           `json:"budget_bytes"`
	Iters        int           `json:"iters"`
	Rows         []prefetchRow `json:"rows"`
}

// prefetchTrain times itersN steady-state calls of a 512 KiB Int64Sum
// Allreduce and returns ns/call plus the prefetcher's cold (first call)
// and warm (timed train) hit rates, both 0 when budget is 0.
func prefetchTrain(backend string, budget, itersN int, reg *metrics.Registry) (nsPerCall, coldHit, warmHit float64, err error) {
	w := mpi.NewWorld(prefetchRanks)
	rule := chaos.NewRule(chaos.LayerMPI, chaos.FaultDelay)
	rule.Delay = prefetchDelay
	w.SetInterceptor(chaos.NewPlan(7, rule).MPIInterceptor())
	ctxs, err := hear.Init(w, hear.Options{
		Rand:          &seqReader{next: 11},
		PRFBackend:    backend,
		NoisePrefetch: budget,
		Metrics:       reg,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	train := func(calls int) error {
		return w.Run(0, func(c *mpi.Comm) error {
			data := make([]int64, prefetchElems)
			out := make([]int64, prefetchElems)
			for i := 0; i < calls; i++ {
				if err := ctxs[c.Rank()].AllreduceInt64Sum(c, data, out); err != nil {
					return err
				}
			}
			return nil
		})
	}
	hitRate := func(baseHit, baseMiss uint64) (float64, uint64, uint64) {
		var hit, miss uint64
		for _, ctx := range ctxs {
			s := ctx.PrefetchStats()
			hit += s.HitBytes
			miss += s.MissBytes
		}
		dh, dm := hit-baseHit, miss-baseMiss
		if dh+dm == 0 {
			return 0, hit, miss
		}
		return float64(dh) / float64(dh+dm), hit, miss
	}

	// Cold: the very first collective, nothing speculated yet.
	if err := train(1); err != nil {
		return 0, 0, 0, err
	}
	coldHit, hit, miss := hitRate(0, 0)
	// Warm up to steady state, then time the train.
	if err := train(3); err != nil {
		return 0, 0, 0, err
	}
	_, hit, miss = hitRate(hit, miss)
	start := time.Now()
	if err := train(itersN); err != nil {
		return 0, 0, 0, err
	}
	wall := time.Since(start)
	warmHit, _, _ = hitRate(hit, miss)
	return float64(wall.Nanoseconds()) / float64(itersN), coldHit, warmHit, nil
}

func prefetchExp() error {
	itersN := iters(2000)
	if itersN > 40 {
		itersN = 40 // each call sleeps ~4 ms; 40 calls bound a full run
	}
	report := prefetchReport{
		Experiment:   "prefetch",
		Ranks:        prefetchRanks,
		Elems:        prefetchElems,
		MessageBytes: prefetchElems * 8,
		DelayUS:      float64(prefetchDelay) / float64(time.Microsecond),
		BudgetBytes:  prefetchBudget,
		Iters:        itersN,
	}
	fmt.Printf("noise prefetch overlap: %d ranks, %d KiB messages, %v/message link delay, %d iters\n",
		prefetchRanks, prefetchElems*8>>10, prefetchDelay, itersN)
	fmt.Printf("%-14s %14s %14s %10s %10s %9s\n", "backend", "off ns/call", "on ns/call", "cold hit", "warm hit", "speedup")
	for _, backend := range []string{prf.BackendChaCha20, prf.BackendAESFast} {
		offNs, _, _, err := prefetchTrain(backend, 0, itersN, nil)
		if err != nil {
			return err
		}
		reg := metrics.New()
		onNs, cold, warm, err := prefetchTrain(backend, prefetchBudget, itersN, reg)
		if err != nil {
			return err
		}
		row := prefetchRow{
			Backend:        backend,
			OffNsPerCall:   offNs,
			OnNsPerCall:    onNs,
			OffNsPerElem:   offNs / prefetchElems,
			OnNsPerElem:    onNs / prefetchElems,
			ColdHitRate:    cold,
			WarmHitRate:    warm,
			SpeedupPercent: 100 * (1 - onNs/offNs),
			Metrics:        reg.Map(),
		}
		report.Rows = append(report.Rows, row)
		fmt.Printf("%-14s %14.0f %14.0f %9.1f%% %9.1f%% %8.1f%%\n",
			backend, row.OffNsPerCall, row.OnNsPerCall, 100*cold, 100*warm, row.SpeedupPercent)
	}
	return writeReport("BENCH_prefetch.json", report)
}
