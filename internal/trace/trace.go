// Package trace provides the phase timers behind Figure 4's critical-path
// breakdown: one Allreduce call decomposes into mem_alloc, encrypt, comm,
// decrypt, and mem_free, and the breakdown reports each phase's share of
// the total. The paper samples x86 RDTSC; we sample the monotonic clock
// and convert to cycles at a nominal frequency for like-for-like plots.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Phase names in critical-path order, matching Figure 4's legend.
const (
	PhaseMemAlloc = "mem_alloc"
	PhaseEncrypt  = "encrypt"
	PhaseComm     = "comm"
	PhaseDecrypt  = "decrypt"
	PhaseMemFree  = "mem_free"
)

// PhaseOrder is the canonical rendering order.
var PhaseOrder = []string{PhaseMemAlloc, PhaseEncrypt, PhaseComm, PhaseDecrypt, PhaseMemFree}

// NominalGHz converts durations to the paper's cycle axis (the testbed's
// Xeon E5-2695 v4 runs at 2.10 GHz).
const NominalGHz = 2.10

// Breakdown accumulates per-phase durations over many iterations.
type Breakdown struct {
	totals map[string]time.Duration
	counts map[string]int
	// KeepSamples retains every duration so Median is available — the
	// robust statistic for noisy (virtualized, time-shared) hosts where a
	// single multi-second stall would poison a mean.
	KeepSamples bool
	samples     map[string][]time.Duration
}

// NewBreakdown returns an empty accumulator.
func NewBreakdown() *Breakdown {
	return &Breakdown{
		totals:  map[string]time.Duration{},
		counts:  map[string]int{},
		samples: map[string][]time.Duration{},
	}
}

// Timer measures one phase; obtain with Start, finish with Stop.
type Timer struct {
	b     *Breakdown
	phase string
	t0    time.Time
}

// Start begins timing a phase.
func (b *Breakdown) Start(phase string) Timer {
	return Timer{b: b, phase: phase, t0: time.Now()}
}

// Stop records the elapsed time into the breakdown.
func (t Timer) Stop() {
	t.b.AddDuration(t.phase, time.Since(t.t0))
}

// AddDuration records an externally measured duration.
func (b *Breakdown) AddDuration(phase string, d time.Duration) {
	b.totals[phase] += d
	b.counts[phase]++
	if b.KeepSamples {
		b.samples[phase] = append(b.samples[phase], d)
	}
}

// Median returns the median duration of a phase. It requires KeepSamples;
// without samples it falls back to the mean.
func (b *Breakdown) Median(phase string) time.Duration {
	s := b.samples[phase]
	if len(s) == 0 {
		return b.Mean(phase)
	}
	sorted := make([]time.Duration, len(s))
	copy(sorted, s)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// MedianCycles converts Median to cycles at the nominal frequency.
func (b *Breakdown) MedianCycles(phase string) float64 {
	return b.Median(phase).Seconds() * NominalGHz * 1e9
}

// MedianOverheadPercent is OverheadPercent on medians.
func (b *Breakdown) MedianOverheadPercent() (float64, bool) {
	comm := b.Median(PhaseComm)
	if b.counts[PhaseComm] == 0 || comm == 0 {
		// Comm never recorded — or recorded as zero time, below the clock's
		// resolution: either way "overhead as a % of comm" has no value, as
		// opposed to a genuine 0% (comm measured, no other phases).
		return 0, false
	}
	var other time.Duration
	for _, p := range b.Phases() {
		if p != PhaseComm {
			other += b.Median(p)
		}
	}
	return 100 * float64(other) / float64(comm), true
}

// MedianString renders the median breakdown as a Figure 4-style row.
func (b *Breakdown) MedianString() string {
	var sb strings.Builder
	var total float64
	for i, p := range b.Phases() {
		if i > 0 {
			sb.WriteString("  ")
		}
		c := b.MedianCycles(p)
		total += c
		fmt.Fprintf(&sb, "%s=%.0fcy", p, c)
	}
	fmt.Fprintf(&sb, "  total=%.0fcy overhead=%s", total, formatOverhead(b.MedianOverheadPercent()))
	return sb.String()
}

// formatOverhead renders an overhead percentage, distinguishing a
// measured 0.0% from "comm was never (usably) measured".
func formatOverhead(pct float64, ok bool) string {
	if !ok {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", pct)
}

// Sum returns the accumulated duration of a phase across all iterations.
func (b *Breakdown) Sum(phase string) time.Duration { return b.totals[phase] }

// Count returns how many samples a phase has accumulated.
func (b *Breakdown) Count(phase string) int { return b.counts[phase] }

// Mean returns the average duration of one phase iteration.
func (b *Breakdown) Mean(phase string) time.Duration {
	n := b.counts[phase]
	if n == 0 {
		return 0
	}
	return b.totals[phase] / time.Duration(n)
}

// MeanCycles converts Mean to cycles at the nominal frequency.
func (b *Breakdown) MeanCycles(phase string) float64 {
	return b.Mean(phase).Seconds() * NominalGHz * 1e9
}

// Total returns the mean end-to-end critical path per iteration.
func (b *Breakdown) Total() time.Duration {
	var sum time.Duration
	for _, p := range b.Phases() {
		sum += b.Mean(p)
	}
	return sum
}

// OverheadPercent returns the non-comm share relative to comm — the
// percentage annotations of Figure 4 ("7.1%" for AES-NI, "75.5%" for
// SHA1). The boolean reports whether the percentage is meaningful: false
// when the comm phase was never recorded (or measured as zero time), so
// callers can render "n/a" instead of a bogus 0.0% that is
// indistinguishable from a genuinely overhead-free run.
func (b *Breakdown) OverheadPercent() (float64, bool) {
	comm := b.Mean(PhaseComm)
	if b.counts[PhaseComm] == 0 || comm == 0 {
		return 0, false
	}
	var other time.Duration
	for _, p := range b.Phases() {
		if p != PhaseComm {
			other += b.Mean(p)
		}
	}
	return 100 * float64(other) / float64(comm), true
}

// Phases lists recorded phases in canonical order, then any extras sorted.
func (b *Breakdown) Phases() []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range PhaseOrder {
		if b.counts[p] > 0 {
			out = append(out, p)
			seen[p] = true
		}
	}
	var extra []string
	for p := range b.counts {
		if !seen[p] {
			extra = append(extra, p)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// SyncBreakdown is a Breakdown safe for concurrent recording. Long-lived
// multi-goroutine services — the aggregation gateway's connection handlers
// and fold workers — record into one SyncBreakdown and publish snapshots;
// the per-rank Breakdown stays lock-free for the single-goroutine
// benchmarking paths.
type SyncBreakdown struct {
	mu sync.Mutex
	b  *Breakdown
}

// NewSyncBreakdown returns an empty concurrent accumulator.
func NewSyncBreakdown() *SyncBreakdown {
	return &SyncBreakdown{b: NewBreakdown()}
}

// AddDuration records an externally measured duration.
func (s *SyncBreakdown) AddDuration(phase string, d time.Duration) {
	s.mu.Lock()
	s.b.AddDuration(phase, d)
	s.mu.Unlock()
}

// Start begins timing a phase; call the returned stop function to record.
// The returned closure allocates — hot loops that must stay allocation-free
// use StartTimer instead.
func (s *SyncBreakdown) Start(phase string) func() {
	t0 := time.Now()
	return func() { s.AddDuration(phase, time.Since(t0)) }
}

// SyncTimer measures one phase of a SyncBreakdown without allocating: it is
// a plain value, so the gateway's per-chunk receive and fold paths can time
// themselves at zero allocations per operation (TestSyncTimerAllocFree).
type SyncTimer struct {
	s     *SyncBreakdown
	phase string
	t0    time.Time
}

// StartTimer begins timing a phase; finish with Stop.
func (s *SyncBreakdown) StartTimer(phase string) SyncTimer {
	return SyncTimer{s: s, phase: phase, t0: time.Now()}
}

// Stop records the elapsed time into the breakdown.
func (t SyncTimer) Stop() {
	t.s.AddDuration(t.phase, time.Since(t.t0))
}

// SetKeepSamples toggles per-duration sample retention on the underlying
// breakdown, enabling true medians on snapshots (see Breakdown.KeepSamples
// for the cost trade-off). Samples recorded while retention was off are
// not reconstructed.
func (s *SyncBreakdown) SetKeepSamples(keep bool) {
	s.mu.Lock()
	s.b.KeepSamples = keep
	s.mu.Unlock()
}

// Snapshot returns an independent copy of the accumulated breakdown,
// safe to read while recording continues. The copy carries everything the
// accumulator holds — totals, counts, byte counters, and (with
// KeepSamples) the retained samples, so Median on a snapshot is the real
// median, not a silent fall-back to the mean.
func (s *SyncBreakdown) Snapshot() *Breakdown {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := NewBreakdown()
	for p, d := range s.b.totals {
		c.totals[p] = d
	}
	for p, n := range s.b.counts {
		c.counts[p] = n
	}
	c.KeepSamples = s.b.KeepSamples
	for p, samples := range s.b.samples {
		c.samples[p] = append([]time.Duration(nil), samples...)
	}
	return c
}

// String renders the breakdown as a Figure 4-style row.
func (b *Breakdown) String() string {
	var sb strings.Builder
	for i, p := range b.Phases() {
		if i > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%s=%.0fcy", p, b.MeanCycles(p))
	}
	fmt.Fprintf(&sb, "  total=%.0fcy overhead=%s",
		b.Total().Seconds()*NominalGHz*1e9, formatOverhead(b.OverheadPercent()))
	return sb.String()
}
