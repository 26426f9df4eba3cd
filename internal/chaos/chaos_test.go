package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hear/internal/inc"
	"hear/internal/mpi"
)

// mpiCampaign runs rounds of sends across a world under a fresh plan with
// the given rules and returns the plan's digest plus which payloads each
// receiver saw (a per-rank outcome fingerprint).
func mpiCampaign(t *testing.T, seed int64, rules []Rule) (uint64, string) {
	t.Helper()
	const p, rounds = 4, 8
	w := mpi.NewWorld(p)
	plan := NewPlan(seed, rules...)
	w.SetInterceptor(plan.MPIInterceptor())
	var mu sync.Mutex
	outcomes := make(map[string]string)
	err := w.Run(30*time.Second, func(c *mpi.Comm) error {
		c.SetRecvTimeout(500 * time.Millisecond)
		// Each rank sends round-stamped payloads to its successor, then
		// receives from its predecessor. All sends go first (they are
		// eager), so every surviving message is queued before any recv
		// deadline starts ticking: "lost" is then exactly "dropped by the
		// plan", independent of scheduling.
		next, prev := (c.Rank()+1)%p, (c.Rank()+p-1)%p
		for round := 0; round < rounds; round++ {
			if err := c.Send(next, round, []byte{byte(c.Rank()), byte(round)}); err != nil {
				return err
			}
		}
		var got []string
		for round := 0; round < rounds; round++ {
			buf := make([]byte, 4)
			n, _, err := c.Recv(prev, round, buf)
			switch {
			// A dropped message surfaces as ErrTimeout or, if the sender
			// already finished, ErrRankExited — same lost message, so the
			// outcome fingerprint must not distinguish them.
			case errors.Is(err, mpi.ErrTimeout), errors.Is(err, mpi.ErrRankExited):
				got = append(got, fmt.Sprintf("r%d:lost", round))
			case err != nil:
				return err
			default:
				got = append(got, fmt.Sprintf("r%d:%x", round, buf[:n]))
			}
		}
		mu.Lock()
		outcomes[fmt.Sprintf("rank%d", c.Rank())] = fmt.Sprint(got)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"rank0", "rank1", "rank2", "rank3"}
	var sb bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%s;", k, outcomes[k])
	}
	return plan.Digest(), sb.String()
}

// TestMPIScheduleReplays: the same seed yields the same fault schedule
// and the same per-rank outcomes across repeated runs (run the test with
// -cpu 1,2,4 to cover scheduler variation, as CI does).
func TestMPIScheduleReplays(t *testing.T) {
	rules := []Rule{
		func() Rule {
			r := NewRule(LayerMPI, FaultDrop)
			r.Prob = 0.25
			return r
		}(),
	}
	wantDigest, wantOutcome := mpiCampaign(t, 42, rules)
	if wantDigest == NewPlan(42).Digest() {
		t.Fatal("plan fired nothing; drop probability too low for the test to mean anything")
	}
	for i := 0; i < 3; i++ {
		digest, outcome := mpiCampaign(t, 42, rules)
		if digest != wantDigest {
			t.Fatalf("run %d: digest %x != %x", i, digest, wantDigest)
		}
		if outcome != wantOutcome {
			t.Fatalf("run %d: outcomes diverged:\n%s\n%s", i, outcome, wantOutcome)
		}
	}
	// A different seed must give a different schedule (overwhelmingly).
	digest, _ := mpiCampaign(t, 43, rules)
	if digest == wantDigest {
		t.Fatal("seeds 42 and 43 produced identical schedules")
	}
}

// TestMPIDuplicateAndReorder: duplicate delivers the message twice;
// reorder swaps two consecutive messages at a site.
func TestMPIDuplicateAndReorder(t *testing.T) {
	w := mpi.NewWorld(2)
	dup := NewRule(LayerMPI, FaultDuplicate)
	dup.Match.Tag = 1
	dup.Limit = 1
	reorder := NewRule(LayerMPI, FaultReorder)
	reorder.Match.Tag = 2
	reorder.Limit = 1
	plan := NewPlan(7, dup, reorder)
	w.SetInterceptor(plan.MPIInterceptor())
	err := w.Run(30*time.Second, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []byte{0xaa}); err != nil {
				return err
			}
			for _, v := range []byte{1, 2} {
				if err := c.Send(1, 2, []byte{v}); err != nil {
					return err
				}
			}
			return nil
		}
		buf := make([]byte, 1)
		// Duplicate: the same tag-1 payload arrives twice.
		for i := 0; i < 2; i++ {
			if _, _, err := c.Recv(0, 1, buf); err != nil {
				return fmt.Errorf("dup recv %d: %w", i, err)
			}
			if buf[0] != 0xaa {
				return fmt.Errorf("dup recv %d: got %x", i, buf[0])
			}
		}
		// Reorder: payload 2 overtakes payload 1.
		want := []byte{2, 1}
		for i := 0; i < 2; i++ {
			if _, _, err := c.Recv(0, 2, buf); err != nil {
				return fmt.Errorf("reorder recv %d: %w", i, err)
			}
			if buf[0] != want[i] {
				return fmt.Errorf("reorder recv %d: got %d, want %d", i, buf[0], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMPIInterceptorFramesOwnTheirBuffers holds the adapter to
// mpi.Interceptor's ownership contract: the runtime recycles a frame's
// buffer once its receiver has consumed it, so over a long mixed campaign —
// duplicates, reorders, corruption and drops firing at the same sites — no
// buffer may be delivered twice and no two frames may share one.
func TestMPIInterceptorFramesOwnTheirBuffers(t *testing.T) {
	var rules []Rule
	for _, f := range []Fault{FaultDuplicate, FaultReorder, FaultCorrupt, FaultDrop} {
		r := NewRule(LayerMPI, f)
		r.Prob = 0.3
		rules = append(rules, r)
	}
	ic := NewPlan(11, rules...).MPIInterceptor()
	delivered := make(map[*byte]bool)
	frames := 0
	for i := 0; i < 4000; i++ {
		data := make([]byte, 8, 16) // spare capacity: a frame built by append would alias
		for _, f := range ic(i%3, (i+1)%3, i%5, data) {
			if len(f) != len(data) {
				t.Fatalf("call %d: frame of %d B from a %d B message", i, len(f), len(data))
			}
			base := &f[:1][0]
			if delivered[base] {
				t.Fatalf("call %d: a buffer was delivered twice", i)
			}
			delivered[base] = true
			frames++
		}
	}
	if frames <= 4000*7/10 {
		t.Fatalf("%d frames from 4000 messages: duplicates or releases never fired", frames)
	}
}

// TestINCInterceptorFaults: kill-switch permanently stalls rounds through
// the dead switch; corrupt flips exactly one bit, deterministically.
func TestINCInterceptorFaults(t *testing.T) {
	fold := func(dst, src []byte) {
		for i := range dst {
			dst[i] += src[i]
		}
	}
	// Corrupt rank 1's leaf ingress on round 0 only.
	corrupt := NewRule(LayerINC, FaultCorrupt)
	corrupt.Match.Rank = 1
	corrupt.Match.Round = 0
	plan := NewPlan(9, corrupt)

	tree, err := inc.NewTree(2, 2, fold)
	if err != nil {
		t.Fatal(err)
	}
	tree.SetInterceptor(plan.INCInterceptor(0))
	run := func(vals ...byte) ([]byte, []error) {
		outs := make([][]byte, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				buf := []byte{vals[rank]}
				errs[rank] = tree.Allreduce(rank, buf)
				outs[rank] = buf
			}(r)
		}
		wg.Wait()
		if !bytes.Equal(outs[0], outs[1]) {
			t.Fatalf("ranks disagree: %x vs %x", outs[0], outs[1])
		}
		return outs[0], errs
	}
	out, errs := run(1, 1)
	if errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}
	if out[0] == 2 {
		t.Fatal("corrupt rule fired but the aggregate is untampered")
	}
	// Round 1 is outside the rule's Match.Round: clean aggregate.
	out, errs = run(1, 1)
	if errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}
	if out[0] != 2 {
		t.Fatalf("round 1: got %d, want clean sum 2", out[0])
	}

	// Kill the root switch of a fresh tree: every round times out.
	kill := NewRule(LayerINC, FaultKillSwitch)
	killPlan := NewPlan(11, kill)
	tree2, err := inc.NewTree(2, 2, fold)
	if err != nil {
		t.Fatal(err)
	}
	tree2.SetTimeout(100 * time.Millisecond)
	tree2.SetInterceptor(killPlan.INCInterceptor(0))
	for round := 0; round < 2; round++ {
		_, errs = func() ([]byte, []error) {
			outs := make([][]byte, 2)
			errs := make([]error, 2)
			var wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					buf := []byte{1}
					errs[rank] = tree2.Allreduce(rank, buf)
					outs[rank] = buf
				}(r)
			}
			wg.Wait()
			return outs[0], errs
		}()
		for rank, e := range errs {
			if !errors.Is(e, inc.ErrTimeout) {
				t.Fatalf("round %d rank %d: want inc.ErrTimeout through killed switch, got %v", round, rank, e)
			}
		}
	}
}

// TestConnSeverAndCrashPoint: a severed conn fails reads and writes with
// ErrSevered and closes the peer; CrashPoint fires per its Match.
func TestConnSeverAndCrashPoint(t *testing.T) {
	sever := NewRule(LayerConn, FaultSever)
	sever.Match.Dir = 1 // cut on the second write
	sever.After = 1
	crash := NewRule(LayerMPI, FaultCrashRank)
	crash.Match.Rank = 2
	crash.Match.Round = 1
	plan := NewPlan(3, sever, crash)

	a, b := net.Pipe()
	defer b.Close()
	wrapped := plan.WrapConn(a, 0)
	go func() {
		buf := make([]byte, 8)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	if _, err := wrapped.Write([]byte("one")); err != nil {
		t.Fatalf("write 0: %v", err)
	}
	if _, err := wrapped.Write([]byte("two")); !errors.Is(err, ErrSevered) {
		t.Fatalf("write 1: want ErrSevered, got %v", err)
	}
	if _, err := wrapped.Read(make([]byte, 8)); !errors.Is(err, ErrSevered) {
		t.Fatalf("read after sever: want ErrSevered, got %v", err)
	}

	for rank := 0; rank < 4; rank++ {
		for round := 0; round < 3; round++ {
			err := plan.CrashPoint(rank, round)
			shouldCrash := rank == 2 && round == 1
			if shouldCrash && !errors.Is(err, ErrCrashed) {
				t.Fatalf("rank %d round %d: want ErrCrashed, got %v", rank, round, err)
			}
			if !shouldCrash && err != nil {
				t.Fatalf("rank %d round %d: unexpected crash %v", rank, round, err)
			}
		}
	}
}

// TestAfterAndLimit: After skips the first events at a site; Limit caps
// firings per site.
func TestAfterAndLimit(t *testing.T) {
	r := NewRule(LayerConn, FaultDrop)
	r.Match.Dir = 1
	r.After = 2
	r.Limit = 1
	plan := NewPlan(5, r)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	wrapped := plan.WrapConn(a, 0)
	got := make(chan byte, 16)
	go func() {
		buf := make([]byte, 1)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
			got <- buf[0]
		}
	}()
	for i := byte(0); i < 5; i++ {
		if _, err := wrapped.Write([]byte{i}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	var seen []byte
	timeoutAt := time.After(2 * time.Second)
	for len(seen) < 4 {
		select {
		case v := <-got:
			seen = append(seen, v)
		case <-timeoutAt:
			t.Fatalf("saw only %v", seen)
		}
	}
	if !bytes.Equal(seen, []byte{0, 1, 3, 4}) {
		t.Fatalf("got %v, want write 2 dropped exactly once", seen)
	}
	events := plan.Events()
	if len(events) != 1 || events[0].N != 2 {
		t.Fatalf("events %v, want one firing at n=2", events)
	}
}
