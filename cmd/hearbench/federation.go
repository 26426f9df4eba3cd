package main

import (
	"fmt"

	"hear/internal/netsim"
)

// federationExp sizes hierarchical gateway federation (internal/aggsvc/
// federation) at the scale the flat gateway cannot reach: the netsim
// fan-in model projects one-million-client rounds across 1-, 2-, and
// 3-tier topologies. It fails unless the 3-tier tree's round latency beats
// the flat gateway's — the claim the federation tier exists for. The
// measured cascade is the gw_cascade_1m benchmark workload
// (benchmarks/run.sh --trace 1).

const (
	fedModelRanks = 1_000_000
	fedModelMsg   = 1024 // sealed lane bytes per client (128 int64 elements)
)

func federationExp() error {
	p := netsim.AriesDefaults()
	fmt.Printf("federation fan-in model: %d clients, %d B sealed lanes (Aries-class NICs)\n",
		fedModelRanks, fedModelMsg)
	fmt.Printf("%-22s %6s %8s %12s %12s %14s\n",
		"topology", "tiers", "fan-in", "latency", "rounds/s", "clients/s")
	latency := map[int]float64{} // by tier count
	for _, tc := range []struct {
		name       string
		cohortSize int
		tiers      int
	}{
		{"flat gateway", fedModelRanks, 1},
		{"2-tier / 1000-cohort", 1000, 2},
		{"3-tier / 100-cohort", 100, 3},
	} {
		s, err := p.Federation(fedModelRanks, tc.cohortSize, tc.tiers, fedModelMsg)
		if err != nil {
			return err
		}
		maxFanIn := 0
		for _, f := range s.FanIn {
			if f > maxFanIn {
				maxFanIn = f
			}
		}
		latency[tc.tiers] = s.Latency
		// Latency is one whole round up and down the tree; rounds/s is the
		// pipelined rate, bound by the busiest gateway.
		fmt.Printf("%-22s %6d %8d %10.3fms %12.1f %13.2fM\n",
			tc.name, s.Levels, maxFanIn, s.Latency*1e3, s.RoundsPerSec, s.ClientsPerSec/1e6)
	}
	if latency[3] >= latency[1] {
		return fmt.Errorf("3-tier round latency %.3f ms does not beat the flat gateway's %.3f ms",
			latency[3]*1e3, latency[1]*1e3)
	}
	return nil
}
