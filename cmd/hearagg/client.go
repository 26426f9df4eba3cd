package main

import (
	"flag"
	"fmt"
	"sort"
	"sync"
	"time"

	"hear"
	"hear/internal/aggsvc"
	"hear/internal/homac"
	"hear/internal/mpi"
)

func runClient(args []string) error {
	fs := flag.NewFlagSet("hearagg client", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7100", "gateway address")
	conns := fs.Int("conns", 8, "concurrent client connections (the round group)")
	rounds := fs.Int("rounds", 1, "aggregation rounds per connection")
	elems := fs.Int("elems", 8192, "int64 elements per vector")
	check := fs.Bool("check", true, "compare every aggregate against the plaintext reference")
	scheme := fs.String("scheme", "sum", "aggregation scheme: sum, prod, or xor (prod and xor require -verify 0)")
	verify := fs.Uint64("verify", 1, "HoMAC verification key seed (0 disables tag lanes)")
	sharedKeys := fs.Bool("shared-keys", false, "derive every rank's keys from one group key, so the survivors can open a degraded round of a -degraded gateway")
	seed := fs.Int64("seed", 1, "input data seed")
	stats := fs.Bool("stats", false, "dump gateway counters and exit")
	connectTimeout := fs.Duration("connect-timeout", 10*time.Second, "retry dialing this long")
	timeout := fs.Duration("timeout", 60*time.Second, "per-round client deadline")
	fs.Parse(args)

	if *stats {
		return dumpStats(*addr, *connectTimeout)
	}
	if *conns < 1 || *rounds < 1 || *elems < 1 {
		return fmt.Errorf("conns, rounds, elems must be positive")
	}
	var kind hear.SchemeKind
	fold := func(a, v int64) int64 { return a + v }
	unit := int64(0)
	switch *scheme {
	case "sum":
		kind = hear.Int64Sum
	case "prod":
		kind = hear.Int64Prod
		fold = func(a, v int64) int64 { return int64(uint64(a) * uint64(v)) }
		unit = 1
	case "xor":
		kind = hear.Int64Xor
		fold = func(a, v int64) int64 { return a ^ v }
	default:
		return fmt.Errorf("unknown -scheme %q (want sum, prod, or xor)", *scheme)
	}

	// All participants live in this process: one in-process world supplies
	// the coordinated contexts the gateway never sees.
	w := mpi.NewWorld(*conns)
	ctxs, err := hear.Init(w, hear.Options{SharedGroupKeys: *sharedKeys})
	if err != nil {
		return err
	}
	var verifier *homac.Vector
	if *verify != 0 {
		if kind != hear.Int64Sum {
			return fmt.Errorf("-scheme %s cannot carry a HoMAC tag lane (tag aggregation is additive); pass -verify 0", *scheme)
		}
		if verifier, err = hear.NewVerifier(*verify); err != nil {
			return err
		}
	}
	sealers := make([]*hear.GatewaySealer, *conns)
	for i, c := range ctxs {
		if sealers[i], err = c.NewGatewaySealerScheme(kind, verifier); err != nil {
			return err
		}
	}

	inputs := make([][]int64, *conns)
	for i := range inputs {
		inputs[i] = make([]int64, *elems)
		for j := range inputs[i] {
			inputs[i][j] = *seed*int64(i+1) + int64(j) - int64(*elems)/2
		}
	}
	// reference folds the plaintext inputs of the given ranks: every rank of
	// this process for a complete round, the survivors for a degraded one.
	reference := func(ranks []int) []int64 {
		want := make([]int64, *elems)
		for j := range want {
			want[j] = unit
		}
		for _, r := range ranks {
			for j := range want {
				want[j] = fold(want[j], inputs[r][j])
			}
		}
		return want
	}
	all := make([]int, *conns)
	for i := range all {
		all[i] = i
	}
	want := reference(all)

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		latencies []time.Duration
		degraded  []aggsvc.Round
		firstErr  error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// One read-buffer pool for the whole fleet: each client recycles its
	// high-water frame buffer through it on Close, so -conns clients over
	// -rounds rounds settle on a handful of RESULT-sized buffers instead
	// of growing one per connection.
	rbufs := &sync.Pool{}
	start := time.Now()
	for i := 0; i < *conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := dialRetry(*addr, sealers[i],
				aggsvc.ClientOptions{Timeout: *timeout, ReadBufPool: rbufs}, *connectTimeout)
			if err != nil {
				fail(fmt.Errorf("conn %d: %w", i, err))
				return
			}
			defer c.Close()
			out := make([]int64, *elems)
			for r := 0; r < *rounds; r++ {
				info, err := c.Aggregate(inputs[i], out)
				if err != nil {
					fail(fmt.Errorf("conn %d round %d: %w", i, r, err))
					return
				}
				if *check {
					ref := want
					if info.Degraded {
						ref = reference(info.Survivors)
					}
					for j := range out {
						if out[j] != ref[j] {
							fail(fmt.Errorf("conn %d round %d: elem %d = %d, want %d",
								i, r, j, out[j], ref[j]))
							return
						}
					}
				}
				mu.Lock()
				latencies = append(latencies, info.Elapsed)
				if info.Degraded {
					degraded = append(degraded, info)
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	elapsed := time.Since(start)

	laneBytes := int64(*elems) * 8
	totalBytes := laneBytes * int64(*conns) * int64(*rounds)
	if *verify != 0 {
		totalBytes *= 2 // tag lane rides along
	}
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	pct := func(p float64) time.Duration {
		return latencies[min(len(latencies)-1, int(p*float64(len(latencies))))]
	}
	verified := "verified"
	if *verify == 0 {
		verified = "unverified"
	}
	fmt.Printf("hearagg: %d conns × %d rounds × %d elems (%s) OK\n", *conns, *rounds, *elems, verified)
	fmt.Printf("hearagg: wall %.3fs, %.1f rounds/s, %.1f MB/s submitted\n",
		elapsed.Seconds(), float64(*rounds)/elapsed.Seconds(),
		float64(totalBytes)/elapsed.Seconds()/1e6)
	fmt.Printf("hearagg: round latency p50=%s p90=%s max=%s\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
		latencies[len(latencies)-1].Round(time.Microsecond))
	if len(degraded) > 0 {
		fmt.Printf("hearagg: %d of %d results degraded; survivors opened the partial aggregate over ranks %v\n",
			len(degraded), len(latencies), degraded[0].Survivors)
	}
	if *check {
		fmt.Println("hearagg: aggregate matches plaintext reference")
	}
	return nil
}

// dialRetry keeps dialing until the gateway answers or the budget runs
// out, so the client can be started before (or concurrently with) serve.
// Delays back off exponentially with jitter — a fleet of clients launched
// together must not re-dial a still-starting gateway in lockstep.
func dialRetry(addr string, s aggsvc.Sealer, opt aggsvc.ClientOptions, budget time.Duration) (*aggsvc.Client, error) {
	deadline := time.Now().Add(budget)
	bo := &aggsvc.Backoff{Base: 50 * time.Millisecond, Max: time.Second, Seed: int64(opt.JitterSeed) ^ deadline.UnixNano()}
	for attempt := 1; ; attempt++ {
		c, err := aggsvc.Dial(addr, s, opt)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, &aggsvc.GiveUpError{Op: "dial " + addr, Attempts: attempt, Last: err}
		}
		bo.Sleep(attempt)
	}
}

func dumpStats(addr string, budget time.Duration) error {
	c, err := dialRetry(addr, nil, aggsvc.ClientOptions{Timeout: budget}, budget)
	if err != nil {
		return err
	}
	defer c.Close()
	m, err := c.ServerStats()
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-24s %d\n", k, m[k])
	}
	return nil
}
