package federation_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"testing"
	"time"

	"hear"
	"hear/internal/aggsvc"
	"hear/internal/mpi"
	"hear/internal/prf"
)

// raceBuild reports whether the test binary runs under the race detector,
// whose sync.Pool drops items by design.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestGatewayRoundAllocs pins the gateway round's steady state: with the
// lane accumulators and degraded stages recycled and the cascade relaying
// the global aggregate back into the lanes it sent, a tagged 128 Ki-element
// round — flat, and through a leaf of two cohorts into a root — allocates
// under 1 % of its lane bytes per round, counted over the whole process
// (clients, sealers, gateways, uplink) across 50 steady-state rounds.
func TestGatewayRoundAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("race-mode sync.Pool drops items; the gate runs race-free")
	}
	// A collection empties the free lists (that is what bounds their
	// retention); refilling them is not a per-round cost, so the collector
	// stays off while rounds are counted.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const clients, elems, windows, window = 4, 128 << 10, 5, 10
	laneBytes := 2 * elems * 8 // data + tag lane
	for _, cascade := range []bool{false, true} {
		t.Run(fmt.Sprintf("cascade=%v", cascade), func(t *testing.T) {
			front := aggsvc.Config{Group: clients}
			if cascade {
				root := startTier(t, aggsvc.Config{Group: 2})
				front = aggsvc.Config{Group: 2, Cohorts: 2, CohortBy: roundRobin(2), Uplink: uplinkTo(t, root, 0, nil)}
			}
			l := startTier(t, front)
			// ChaCha20 keys: an AES-fast stream builds one CTR object per
			// stream it opens (TestSealerAllocs carves that out of the
			// sealer's own pin); a ChaCha20 stream allocates nothing, so
			// what is counted here is the round, not the PRF backend.
			ctxs, err := hear.Init(mpi.NewWorld(clients), hear.Options{PRFBackend: prf.BackendChaCha20})
			if err != nil {
				t.Fatal(err)
			}
			verifier, err := hear.NewVerifier(0xa110c)
			if err != nil {
				t.Fatal(err)
			}
			cs := make([]*aggsvc.Client, clients)
			for i := range cs {
				conn, err := l.Dial()
				if err != nil {
					t.Fatal(err)
				}
				cs[i] = aggsvc.NewClient(conn, ctxs[i].NewGatewaySealer(verifier), aggsvc.ClientOptions{Timeout: 30 * time.Second})
				defer cs[i].Close()
			}
			in := make([][]int64, clients)
			out := make([][]int64, clients)
			for i := range in {
				in[i], out[i] = make([]int64, elems), make([]int64, elems)
				for j := range in[i] {
					in[i][j] = int64(i*elems + j)
				}
			}
			run := func(n int) uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				errs := make([]error, clients)
				var wg sync.WaitGroup
				for i, c := range cs {
					wg.Add(1)
					go func(i int, c *aggsvc.Client) {
						defer wg.Done()
						for r := 0; r < n && errs[i] == nil; r++ {
							_, errs[i] = c.Aggregate(in[i], out[i])
						}
					}(i, c)
				}
				wg.Wait()
				runtime.ReadMemStats(&after)
				for i, err := range errs {
					if err != nil {
						t.Fatalf("client %d: %v", i, err)
					}
				}
				return after.TotalAlloc - before.TotalAlloc
			}
			run(3 * window) // fill the free lists and grow every scratch buffer
			// The free lists grow whenever more lanes are in flight at once
			// than ever before — a round's lanes go back only after its last
			// RESULT write, while the next round may already be forming. Each
			// such new high-water mark costs one whole lane, so the steady
			// state is the median window, not the sum.
			perRound := make([]float64, windows)
			for w := range perRound {
				perRound[w] = float64(run(window)) / window
			}
			t.Logf("B per round, by window of %d rounds: %.0f", window, perRound)
			sort.Float64s(perRound)
			median := perRound[windows/2]
			if limit := 0.01 * float64(laneBytes); median > limit {
				t.Errorf("%.0f B allocated per round, want < %.0f (1 %% of the round's %d lane bytes)", median, limit, laneBytes)
			}
			t.Logf("median %.0f B per round (%.3f %% of the lane bytes)", median, 100*median/float64(laneBytes))
		})
	}
}
