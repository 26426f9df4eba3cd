package main

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// participant runs one closed-loop round for one rank or client: prepare
// the inputs, call the collective, check the result. It returns the
// collective's call-to-return time; full asks for the full-vector check.
type participant func(round int, full bool) (time.Duration, error)

// rateWindows is how many consecutive windows a timed phase is cut into;
// rounds_per_s is the median of their rates, which cut the run-to-run range
// on the 16 MiB allreduce from 4.4 % (whole-phase mean) to 1.5 %.
const rateWindows = 10

// stallGrace is how long the participants of a broken phase get to come
// back. A collective is a barrier: when it fails for one participant, the
// others may wait in it for good, and the run must still report its counts.
var stallGrace = 5 * time.Second

// tailRounds follow the round that crosses the time limit: one that the
// other participants may already have entered when participant 0 publishes
// the stop, and a last one that all of them know to check in full.
const tailRounds = 2

// phase is the record of one lock-step stretch of rounds.
type phase struct {
	rounds  int           // rounds executed, tail included
	timed   int           // rounds up to the first boundary at or after the limit
	elapsed time.Duration // start to the end of the last timed round
	// Participant 0's call-to-return time and completion offset per round.
	lat, ends []time.Duration
	failed    int   // distinct rounds with an error or a mismatch
	err       error // first error that ended the phase early
	wedged    bool  // after err, a participant never came back from its collective
	mem       [2]runtime.MemStats
	cpu       [2]time.Duration
}

// runPhase drives all participants through rounds first, first+1, ... in
// lock step (a collective is a barrier, so nobody starts round r+1 before
// round r returned everywhere). With count > 0 it runs exactly count rounds;
// otherwise participant 0 ends the phase at the first round boundary at or
// after limit, plus tailRounds. The last round gets the full-vector check.
func runPhase(parts []participant, first, count int, limit time.Duration) *phase {
	ph := &phase{}
	var stop atomic.Int64 // exclusive bound on the round index
	stop.Store(math.MaxInt64)
	if count > 0 {
		stop.Store(int64(first + count))
	}
	var (
		mu        sync.Mutex // guards what follows while participants run
		lat, ends = make([]time.Duration, 0, 1<<14), make([]time.Duration, 0, 1<<14)
		timed     int
		failed    = map[int]bool{}
		firstErr  error
		broken    = make(chan struct{}) // closed by the first collective error
	)
	fail := func(round int, err error) {
		mu.Lock()
		defer mu.Unlock()
		failed[round] = true
		if !errors.Is(err, errMismatch) && firstErr == nil {
			firstErr = err
			close(broken)
		}
	}

	runtime.ReadMemStats(&ph.mem[0])
	ph.cpu[0] = cpuTime()
	t0 := time.Now()
	var wg sync.WaitGroup
	for p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := first; int64(r) < stop.Load(); r++ {
				d, err := parts[p](r, int64(r) == stop.Load()-1)
				if p == 0 {
					mu.Lock()
					lat, ends = append(lat, d), append(ends, time.Since(t0))
					if count == 0 && timed == 0 && time.Since(t0) >= limit {
						timed = r - first + 1
						stop.Store(int64(r + 1 + tailRounds))
					}
					mu.Unlock()
				}
				if err != nil {
					fail(r, err)
					if !errors.Is(err, errMismatch) {
						// The collective itself failed; the others cannot
						// complete a round without this participant.
						stop.Store(int64(first))
						return
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-broken:
		select {
		case <-done:
		case <-time.After(stallGrace):
			ph.wedged = true
		}
	}
	runtime.ReadMemStats(&ph.mem[1])
	ph.cpu[1] = cpuTime()

	// Copies, because a wedged participant may yet return and record.
	mu.Lock()
	defer mu.Unlock()
	ph.lat, ph.ends, ph.timed, ph.err = slices.Clone(lat), slices.Clone(ends), timed, firstErr
	ph.rounds = len(ph.ends)
	if ph.timed == 0 {
		ph.timed = ph.rounds
	}
	if ph.timed > 0 {
		ph.elapsed = ph.ends[ph.timed-1]
	}
	ph.failed = len(failed)
	return ph
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// progress is how many rounds had completed at offset t, counting the round
// in flight by the share of it that had elapsed, so a window's rate does not
// jump by a whole round depending on which side of the boundary a round
// ended.
func (ph *phase) progress(t time.Duration) float64 {
	i := sort.Search(len(ph.ends), func(i int) bool { return ph.ends[i] > t })
	if i == len(ph.ends) {
		return float64(i)
	}
	var prev time.Duration
	if i > 0 {
		prev = ph.ends[i-1]
	}
	return float64(i) + float64(t-prev)/float64(ph.ends[i]-prev)
}

// roundsPerSecond is the median over rateWindows equal consecutive windows
// of the timed stretch of (rounds completed in the window / window length).
func (ph *phase) roundsPerSecond() float64 {
	if ph.elapsed <= 0 {
		return 0
	}
	window := ph.elapsed / rateWindows
	rates := make([]float64, rateWindows)
	for k := range rates {
		done := ph.progress(time.Duration(k+1)*window) - ph.progress(time.Duration(k)*window)
		rates[k] = done / window.Seconds()
	}
	return median(rates)
}

// latencyMS is the q-quantile of the timed rounds' latencies.
func (ph *phase) latencyMS(q float64) float64 {
	ms := make([]float64, ph.timed)
	for i, d := range ph.lat[:ph.timed] {
		ms[i] = float64(d) / 1e6
	}
	return quantile(ms, q)
}

// allocMBPerRound is the heap a round cost the host: TotalAlloc over every
// round of the phase, tail included, since both MemStats readings are taken
// while no participant is running.
func (ph *phase) allocMBPerRound() float64 {
	if ph.rounds == 0 {
		return 0
	}
	return float64(ph.mem[1].TotalAlloc-ph.mem[0].TotalAlloc) / 1e6 / float64(ph.rounds)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile sorts v and interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}
