package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBreakdownAccumulates(t *testing.T) {
	b := NewBreakdown()
	b.AddDuration(PhaseEncrypt, 100*time.Microsecond)
	b.AddDuration(PhaseEncrypt, 300*time.Microsecond)
	b.AddDuration(PhaseComm, 1*time.Millisecond)
	if got := b.Mean(PhaseEncrypt); got != 200*time.Microsecond {
		t.Errorf("mean encrypt = %v", got)
	}
	if got := b.Mean(PhaseComm); got != time.Millisecond {
		t.Errorf("mean comm = %v", got)
	}
	if got := b.Mean("nonexistent"); got != 0 {
		t.Errorf("mean of unrecorded phase = %v", got)
	}
}

func TestTimerMeasuresElapsed(t *testing.T) {
	b := NewBreakdown()
	tm := b.Start(PhaseDecrypt)
	time.Sleep(2 * time.Millisecond)
	tm.Stop()
	if b.Mean(PhaseDecrypt) < time.Millisecond {
		t.Errorf("timer measured %v, slept 2ms", b.Mean(PhaseDecrypt))
	}
}

func TestOverheadPercent(t *testing.T) {
	b := NewBreakdown()
	b.AddDuration(PhaseComm, 1000*time.Microsecond)
	b.AddDuration(PhaseEncrypt, 50*time.Microsecond)
	b.AddDuration(PhaseDecrypt, 21*time.Microsecond)
	got, ok := b.OverheadPercent()
	if !ok {
		t.Fatal("overhead not measurable despite a recorded comm phase")
	}
	if got < 7.0 || got > 7.2 {
		t.Errorf("overhead = %.2f%%, want 7.1%%", got)
	}
	empty := NewBreakdown()
	if pct, ok := empty.OverheadPercent(); ok || pct != 0 {
		t.Error("empty breakdown reports a measurable overhead")
	}
}

// TestOverheadDistinguishesZeroFromUnmeasured is the regression test for
// the overhead=0.0% ambiguity: a breakdown with comm but no other phases
// is genuinely 0%, a breakdown that never timed comm is n/a — they used
// to render identically.
func TestOverheadDistinguishesZeroFromUnmeasured(t *testing.T) {
	zero := NewBreakdown()
	zero.AddDuration(PhaseComm, time.Millisecond)
	if pct, ok := zero.OverheadPercent(); !ok || pct != 0 {
		t.Errorf("comm-only breakdown = (%.1f, %v), want measurable 0%%", pct, ok)
	}
	if s := zero.String(); !strings.Contains(s, "overhead=0.0%") {
		t.Errorf("comm-only String() = %q, want overhead=0.0%%", s)
	}

	unmeasured := NewBreakdown()
	unmeasured.AddDuration(PhaseEncrypt, time.Millisecond)
	if _, ok := unmeasured.OverheadPercent(); ok {
		t.Error("breakdown without comm reports a measurable overhead")
	}
	if s := unmeasured.String(); !strings.Contains(s, "overhead=n/a") {
		t.Errorf("comm-less String() = %q, want overhead=n/a", s)
	}
	if s := unmeasured.MedianString(); !strings.Contains(s, "overhead=n/a") {
		t.Errorf("comm-less MedianString() = %q, want overhead=n/a", s)
	}

	// Comm recorded but below clock resolution: also not a usable divisor.
	zeroDur := NewBreakdown()
	zeroDur.AddDuration(PhaseComm, 0)
	zeroDur.AddDuration(PhaseEncrypt, time.Millisecond)
	if _, ok := zeroDur.OverheadPercent(); ok {
		t.Error("zero-duration comm reports a measurable overhead")
	}
}

func TestPhasesCanonicalOrder(t *testing.T) {
	b := NewBreakdown()
	b.AddDuration(PhaseMemFree, time.Microsecond)
	b.AddDuration(PhaseEncrypt, time.Microsecond)
	b.AddDuration("custom", time.Microsecond)
	b.AddDuration(PhaseMemAlloc, time.Microsecond)
	got := b.Phases()
	want := []string{PhaseMemAlloc, PhaseEncrypt, PhaseMemFree, "custom"}
	if len(got) != len(want) {
		t.Fatalf("phases = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("phases = %v, want %v", got, want)
		}
	}
}

func TestMeanCyclesUsesNominalFrequency(t *testing.T) {
	b := NewBreakdown()
	b.AddDuration(PhaseComm, time.Microsecond)
	if got := b.MeanCycles(PhaseComm); got < 2090 || got > 2110 {
		t.Errorf("1 µs at 2.1 GHz = %f cycles, want 2100", got)
	}
}

func TestMedianRequiresSamples(t *testing.T) {
	b := NewBreakdown()
	b.AddDuration(PhaseComm, 10*time.Microsecond)
	b.AddDuration(PhaseComm, 20*time.Microsecond)
	// Without KeepSamples, Median falls back to the mean.
	if got := b.Median(PhaseComm); got != 15*time.Microsecond {
		t.Errorf("fallback median = %v, want mean 15µs", got)
	}
}

func TestMedianRobustToOutlier(t *testing.T) {
	b := NewBreakdown()
	b.KeepSamples = true
	for i := 0; i < 9; i++ {
		b.AddDuration(PhaseComm, time.Microsecond)
	}
	b.AddDuration(PhaseComm, time.Minute) // the virtualized-host stall
	if got := b.Median(PhaseComm); got != time.Microsecond {
		t.Errorf("median = %v; an outlier moved it", got)
	}
	if b.Mean(PhaseComm) < time.Second {
		t.Error("mean should be poisoned by the outlier (that is the point)")
	}
}

func TestMedianCyclesAndOverhead(t *testing.T) {
	b := NewBreakdown()
	b.KeepSamples = true
	b.AddDuration(PhaseComm, time.Microsecond)
	b.AddDuration(PhaseEncrypt, 100*time.Nanosecond)
	if got := b.MedianCycles(PhaseComm); got < 2090 || got > 2110 {
		t.Errorf("median cycles = %g", got)
	}
	if got, ok := b.MedianOverheadPercent(); !ok || got < 9.9 || got > 10.1 {
		t.Errorf("median overhead = %g%% (ok=%v), want 10%%", got, ok)
	}
	empty := NewBreakdown()
	if pct, ok := empty.MedianOverheadPercent(); ok || pct != 0 {
		t.Error("empty breakdown reports a measurable median overhead")
	}
}

func TestMedianStringRenders(t *testing.T) {
	b := NewBreakdown()
	b.KeepSamples = true
	b.AddDuration(PhaseEncrypt, time.Microsecond)
	b.AddDuration(PhaseComm, 2*time.Microsecond)
	s := b.MedianString()
	for _, want := range []string{"encrypt", "comm", "total", "overhead"} {
		if !strings.Contains(s, want) {
			t.Errorf("MedianString() = %q missing %q", s, want)
		}
	}
}

func TestTotal(t *testing.T) {
	b := NewBreakdown()
	b.AddDuration(PhaseEncrypt, 3*time.Microsecond)
	b.AddDuration(PhaseComm, 7*time.Microsecond)
	if got := b.Total(); got != 10*time.Microsecond {
		t.Errorf("total = %v", got)
	}
}

func TestStringRendersAllPhases(t *testing.T) {
	b := NewBreakdown()
	b.AddDuration(PhaseEncrypt, time.Microsecond)
	b.AddDuration(PhaseComm, time.Microsecond)
	s := b.String()
	for _, want := range []string{"encrypt", "comm", "total", "overhead"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestSumAndCount(t *testing.T) {
	b := NewBreakdown()
	b.AddDuration(PhaseEncrypt, 3*time.Microsecond)
	b.AddDuration(PhaseEncrypt, 5*time.Microsecond)
	if got := b.Sum(PhaseEncrypt); got != 8*time.Microsecond {
		t.Errorf("Sum = %v", got)
	}
	if got := b.Count(PhaseEncrypt); got != 2 {
		t.Errorf("Count = %d", got)
	}
}

func TestSyncBreakdownConcurrent(t *testing.T) {
	s := NewSyncBreakdown()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.AddDuration("fold", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if got := snap.Count("fold"); got != 800 {
		t.Errorf("Count = %d, want 800", got)
	}
	if got := snap.Sum("fold"); got != 800*time.Microsecond {
		t.Errorf("Sum = %v", got)
	}
	// The snapshot is independent of later recording.
	stop := s.Start("fold")
	stop()
	if got := snap.Count("fold"); got != 800 {
		t.Errorf("snapshot mutated: Count = %d", got)
	}
	if s.Snapshot().Count("fold") != 801 {
		t.Error("Start/stop did not record")
	}
}

// TestSyncSnapshotKeepsSamples is the regression test for the
// Snapshot-drops-samples bug: totals/counts were copied but the
// retained samples were not, so Median on a snapshot silently degraded to
// the mean — exactly the outlier-poisoned statistic KeepSamples exists to
// avoid.
func TestSyncSnapshotKeepsSamples(t *testing.T) {
	s := NewSyncBreakdown()
	s.SetKeepSamples(true)
	for i := 0; i < 9; i++ {
		s.AddDuration(PhaseComm, time.Microsecond)
	}
	s.AddDuration(PhaseComm, time.Minute) // the stall an accurate median must shrug off

	snap := s.Snapshot()
	if got := snap.Median(PhaseComm); got != time.Microsecond {
		t.Errorf("snapshot median = %v, want 1µs (mean fallback = sample loss)", got)
	}
	if !snap.KeepSamples {
		t.Error("snapshot lost the KeepSamples flag")
	}

	// The copy is deep: recording after the snapshot must not leak into
	// it, and vice versa.
	s.AddDuration(PhaseComm, time.Minute)
	if got := snap.Median(PhaseComm); got != time.Microsecond {
		t.Errorf("snapshot median mutated by later recording: %v", got)
	}
	snap.AddDuration(PhaseComm, time.Minute)
	if got := s.Snapshot().Count(PhaseComm); got != 11 {
		t.Errorf("live accumulator mutated by snapshot write: count = %d", got)
	}
}

func TestSyncTimerMeasuresElapsed(t *testing.T) {
	s := NewSyncBreakdown()
	tm := s.StartTimer(PhaseComm)
	time.Sleep(2 * time.Millisecond)
	tm.Stop()
	snap := s.Snapshot()
	if snap.Count(PhaseComm) != 1 {
		t.Fatalf("count = %d, want 1", snap.Count(PhaseComm))
	}
	if snap.Sum(PhaseComm) < time.Millisecond {
		t.Errorf("recorded %v, want >= 1ms", snap.Sum(PhaseComm))
	}
}

// TestSyncTimerAllocFree pins the zero-copy wire path's timing contract:
// unlike Start's closure, a SyncTimer costs no allocation per phase sample,
// so the gateway's per-chunk recv/fold timing stays off the garbage path.
func TestSyncTimerAllocFree(t *testing.T) {
	s := NewSyncBreakdown()
	s.StartTimer(PhaseComm).Stop() // warm the phase's map entries
	if n := testing.AllocsPerRun(100, func() {
		tm := s.StartTimer(PhaseComm)
		tm.Stop()
	}); n != 0 {
		t.Errorf("SyncTimer allocates %.1f/op, want 0", n)
	}
}
