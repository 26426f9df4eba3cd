// hearbench regenerates every table and figure of the paper's evaluation:
//
//	hearbench table1     requirement matrix vs Paillier/RSA/ElGamal
//	hearbench fig3       HFP precision loss vs float type and γ
//	hearbench fig4       16 B critical-path latency breakdown
//	hearbench fig5       enc/dec throughput per PRF backend
//	hearbench fig6       16 MiB pipelined throughput vs block size
//	hearbench fig7       throughput scaling to 1152 ranks (model + measured costs)
//	hearbench fig8       16 B latency scaling to 1152 ranks
//	hearbench fig9       DNN training relative iteration time
//	hearbench map        §5.3.1 MAP adversary success probabilities
//	hearbench federation gateway-federation fan-in scaling (1M-client model)
//	hearbench inc        INC's latency/bandwidth advantages (intro claims)
//	hearbench ablation   design-choice ablations (canceling, PRF backend, op cost)
//	hearbench validate   §6 correctness validation (float error, int memcmp)
//	hearbench all        everything above
//
// Flags scale the iteration counts so CI runs stay fast while full runs
// match the paper's methodology (100 000 latency iterations, etc.).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

var (
	quick = flag.Bool("quick", false, "reduce iteration counts ~100x for smoke runs")
	ranks = flag.Int("ranks", 4, "in-process world size for the wall-clock benches")
)

func main() {
	flag.Parse()
	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "all"
	}
	experiments := map[string]func() error{
		"table1":     table1,
		"fig3":       fig3,
		"fig4":       fig4,
		"fig5":       fig5,
		"fig6":       fig6,
		"fig7":       fig7,
		"fig8":       fig8,
		"fig9":       fig9,
		"map":        mapAttack,
		"federation": federationExp,
		"inc":        incExp,
		"ablation":   ablation,
		"validate":   validate,
	}
	if cmd == "all" {
		names := make([]string, 0, len(experiments))
		for n := range experiments {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("\n============================== %s ==============================\n", strings.ToUpper(n))
			if err := experiments[n](); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", n, err)
				os.Exit(1)
			}
		}
		return
	}
	f, ok := experiments[cmd]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", cmd)
		os.Exit(2)
	}
	if err := f(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
		os.Exit(1)
	}
}

// iters scales an iteration count down in -quick mode.
func iters(full int) int {
	if *quick {
		n := full / 100
		if n < 1 {
			n = 1
		}
		return n
	}
	return full
}
