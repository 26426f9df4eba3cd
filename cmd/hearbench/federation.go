package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"hear"
	"hear/internal/aggsvc"
	"hear/internal/aggsvc/federation"
	"hear/internal/metrics"
	"hear/internal/mpi"
	"hear/internal/netsim"
)

// federationExp sizes hierarchical gateway federation (internal/aggsvc/
// federation) at the scale the flat gateway cannot reach: the netsim
// fan-in model projects one-million-client rounds across 1-, 2-, and
// 3-tier topologies, and an in-process 2-tier cascade is then run for
// real — bit-identical to the flat gateway over the same client set — to
// ground the model's shape in measured rounds. Emits
// BENCH_federation.json.

const (
	fedModelRanks = 1_000_000
	fedModelMsg   = 1024 // sealed lane bytes per client (128 int64 elements)
)

type federationModelRow struct {
	Topology   string `json:"topology"`
	Tiers      int    `json:"tiers"`
	CohortSize int    `json:"cohort_size"`
	Gateways   []int  `json:"gateways_per_tier"`
	MaxFanIn   int    `json:"max_fan_in"`
	// LatencyMS is one whole round up and down the tree.
	LatencyMS float64 `json:"latency_ms"`
	// RoundsPerSec is the pipelined rate, bound by the busiest gateway.
	RoundsPerSec   float64 `json:"rounds_per_sec"`
	ClientsPerSecM float64 `json:"clients_per_sec_millions"`
	GBPerSec       float64 `json:"gb_per_sec"`
}

type federationMeasuredRow struct {
	Topology     string             `json:"topology"`
	Clients      int                `json:"clients"`
	Cohorts      int                `json:"cohorts"`
	Elems        int                `json:"elems"`
	Rounds       int                `json:"rounds"`
	WallMS       float64            `json:"wall_ms"`
	RoundsPerSec float64            `json:"rounds_per_sec"`
	Metrics      map[string]float64 `json:"metrics,omitempty"`
}

type federationReport struct {
	Experiment string                  `json:"experiment"`
	ModelRanks int                     `json:"model_ranks"`
	ModelMsg   int                     `json:"model_msg_bytes"`
	Model      []federationModelRow    `json:"model"`
	Measured   []federationMeasuredRow `json:"measured"`
}

func federationExp() error {
	p := netsim.AriesDefaults()
	report := federationReport{
		Experiment: "federation",
		ModelRanks: fedModelRanks,
		ModelMsg:   fedModelMsg,
	}

	fmt.Printf("federation fan-in model: %d clients, %d B sealed lanes (Aries-class NICs)\n",
		fedModelRanks, fedModelMsg)
	fmt.Printf("%-22s %6s %8s %12s %12s %14s\n",
		"topology", "tiers", "fan-in", "latency", "rounds/s", "clients/s")
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
		row := federationModelRow{
			Topology:       tc.name,
			Tiers:          s.Levels,
			CohortSize:     tc.cohortSize,
			Gateways:       s.Gateways,
			MaxFanIn:       maxFanIn,
			LatencyMS:      s.Latency * 1e3,
			RoundsPerSec:   s.RoundsPerSec,
			ClientsPerSecM: s.ClientsPerSec / 1e6,
			GBPerSec:       s.BytesPerSec / 1e9,
		}
		report.Model = append(report.Model, row)
		fmt.Printf("%-22s %6d %8d %10.3fms %12.1f %13.2fM\n",
			tc.name, row.Tiers, row.MaxFanIn, row.LatencyMS, row.RoundsPerSec, row.ClientsPerSecM)
	}

	// Ground truth at laptop scale: the same client set through a flat
	// gateway and a 2-tier cascade, verified aggregates both ways.
	const clients, cohorts, elems = 8, 4, 1024
	roundsN := iters(400)
	fmt.Printf("\nmeasured in-process cascade: %d clients, %d-element verified SUM, %d rounds\n",
		clients, elems, roundsN)
	flat, err := runFederationCampaign("flat", clients, 1, elems, roundsN, nil)
	if err != nil {
		return err
	}
	reg := metrics.New()
	fed, err := runFederationCampaign("2-tier / 4 cohorts", clients, cohorts, elems, roundsN, reg)
	if err != nil {
		return err
	}
	report.Measured = append(report.Measured, flat, fed)
	for _, r := range report.Measured {
		fmt.Printf("%-22s %8.1fms wall, %8.1f rounds/s\n", r.Topology, r.WallMS, r.RoundsPerSec)
	}

	return writeReport("BENCH_federation.json", report)
}

// runFederationCampaign drives clients through roundsN verified SUM rounds
// against an in-process gateway topology: flat when cohorts is 1, a leaf
// tier cascading into a root otherwise. Every aggregate is checked against
// the plaintext reference.
func runFederationCampaign(name string, clients, cohorts, elems, roundsN int, reg *metrics.Registry) (federationMeasuredRow, error) {
	row := federationMeasuredRow{Topology: name, Clients: clients, Cohorts: cohorts, Elems: elems, Rounds: roundsN}

	var listeners []*aggsvc.PipeListener
	var servers []*aggsvc.Server
	startTier := func(cfg aggsvc.Config) (*aggsvc.PipeListener, error) {
		s, err := aggsvc.NewServer(cfg)
		if err != nil {
			return nil, err
		}
		l := aggsvc.NewPipeListener()
		go s.Serve(l)
		listeners = append(listeners, l)
		servers = append(servers, s)
		return l, nil
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	var front *aggsvc.PipeListener
	if cohorts == 1 {
		l, err := startTier(aggsvc.Config{Group: clients, Metrics: reg})
		if err != nil {
			return row, err
		}
		front = l
	} else {
		rootL, err := startTier(aggsvc.Config{Group: cohorts, Metrics: reg})
		if err != nil {
			return row, err
		}
		u, err := federation.New(federation.Config{Dial: rootL.Dial, Metrics: reg})
		if err != nil {
			return row, err
		}
		var next int64
		var mu sync.Mutex
		l, err := startTier(aggsvc.Config{
			Group:   clients / cohorts,
			Cohorts: cohorts,
			CohortBy: func(net.Addr) int {
				mu.Lock()
				defer mu.Unlock()
				c := int(next % int64(cohorts))
				next++
				return c
			},
			Uplink:  u.Dialer(),
			Metrics: reg,
		})
		if err != nil {
			return row, err
		}
		front = l
	}

	w := mpi.NewWorld(clients)
	ctxs, err := hear.Init(w, hear.Options{})
	if err != nil {
		return row, err
	}
	verifier, err := hear.NewVerifier(0xbe7c)
	if err != nil {
		return row, err
	}

	inputs := make([][]int64, clients)
	want := make([]int64, elems)
	for i := range inputs {
		inputs[i] = make([]int64, elems)
		for j := range inputs[i] {
			inputs[i][j] = int64((i+1)*(j+7)) - 99
			want[j] += inputs[i][j]
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, clients)
	start := time.Now()
	for i := 0; i < clients; i++ {
		conn, err := front.Dial()
		if err != nil {
			return row, err
		}
		c := aggsvc.NewClient(conn, ctxs[i].NewGatewaySealer(verifier),
			aggsvc.ClientOptions{Timeout: 60 * time.Second})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer c.Close()
			out := make([]int64, elems)
			for r := 0; r < roundsN; r++ {
				if _, err := c.Aggregate(inputs[i], out); err != nil {
					errs[i] = err
					return
				}
				for j := range out {
					if out[j] != want[j] {
						errs[i] = fmt.Errorf("round %d elem %d = %d, want %d", r, j, out[j], want[j])
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return row, fmt.Errorf("%s client %d: %w", name, i, err)
		}
	}
	row.WallMS = float64(wall.Nanoseconds()) / 1e6
	row.RoundsPerSec = float64(roundsN) / wall.Seconds()
	row.Metrics = reg.Map()
	return row, nil
}
