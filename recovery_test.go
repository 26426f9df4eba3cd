package hear

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hear/internal/chaos"
	"hear/internal/inc"
	"hear/internal/mpi"
)

// buildVerifiedTrees returns a (data, tag) tree pair for p ranks with
// radix 2, the in-network layout every verified INC test uses.
func buildVerifiedTrees(t *testing.T, p int) (*inc.Tree, *inc.Tree) {
	t.Helper()
	dataTree, err := inc.NewTree(p, 2, sumFold64)
	if err != nil {
		t.Fatal(err)
	}
	tagTree, err := inc.NewTree(p, 2, TagFold)
	if err != nil {
		t.Fatal(err)
	}
	return dataTree, tagTree
}

// TestVerifiedRetryRecoversFromINCCorruption is the end-to-end recovery
// scenario for a tampering switch: a chaos plan corrupts every frame of
// the DATA tree, so the in-network attempt fails HoMAC verification on
// every rank; with VerifiedRetry the whole group steps down to the host
// path and completes with the correct aggregate.
func TestVerifiedRetryRecoversFromINCCorruption(t *testing.T) {
	const p = 4
	dataTree, tagTree := buildVerifiedTrees(t, p)
	corrupt := chaos.NewRule(chaos.LayerINC, chaos.FaultCorrupt)
	plan := chaos.NewPlan(0xC0BB, corrupt)
	dataTree.SetInterceptor(plan.INCInterceptor(0))

	w, ctxs := initWorld(t, p, Options{INC: dataTree, INCTags: tagTree, VerifiedRetry: 2})
	verifier, err := NewVerifier(0xFA117)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(testTimeout, func(c *mpi.Comm) error {
		data := []int64{int64(c.Rank()) + 1, -7, int64(c.Rank()) << 30}
		want := []int64{10, -28, (0 + 1 + 2 + 3) << 30}
		out := make([]int64, 3)
		if err := ctxs[c.Rank()].AllreduceInt64SumVerified(c, verifier, data, out); err != nil {
			return err
		}
		for i := range out {
			if out[i] != want[i] {
				return fmt.Errorf("rank %d: recovered sum[%d] = %d, want %d", c.Rank(), i, out[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, ctx := range ctxs {
		if ctx.VerifiedRetries() < 1 {
			t.Errorf("rank %d reported %d retries; the corrupted INC attempt should have failed first", r, ctx.VerifiedRetries())
		}
	}
	if len(plan.Events()) == 0 {
		t.Fatal("the corruption rule never fired — the test exercised nothing")
	}
}

// TestVerifiedRetryRecoversFromINCTimeout: a killed switch stalls the data
// tree until its round timeout; the typed inc.ErrTimeout is retryable and
// the group recovers over the host ladder.
func TestVerifiedRetryRecoversFromINCTimeout(t *testing.T) {
	const p = 4
	dataTree, tagTree := buildVerifiedTrees(t, p)
	dataTree.SetTimeout(150 * time.Millisecond)
	tagTree.SetTimeout(150 * time.Millisecond)
	kill := chaos.NewRule(chaos.LayerINC, chaos.FaultKillSwitch)
	plan := chaos.NewPlan(0xDEAD, kill)
	dataTree.SetInterceptor(plan.INCInterceptor(0))

	w, ctxs := initWorld(t, p, Options{INC: dataTree, INCTags: tagTree, VerifiedRetry: 2})
	verifier, err := NewVerifier(0x7E1E)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(testTimeout, func(c *mpi.Comm) error {
		data := []int64{int64(c.Rank() * 11)}
		out := make([]int64, 1)
		if err := ctxs[c.Rank()].AllreduceInt64SumVerified(c, verifier, data, out); err != nil {
			return err
		}
		if out[0] != 11*(0+1+2+3) {
			return fmt.Errorf("rank %d: recovered sum = %d, want %d", c.Rank(), out[0], 11*6)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, ctx := range ctxs {
		if ctx.VerifiedRetries() < 1 {
			t.Errorf("rank %d reported %d retries; the killed switch should have timed the INC attempt out", r, ctx.VerifiedRetries())
		}
	}
}

// TestVerifiedRetryHostLadder: with no INC at all, the ladder starts at
// the pipelined host rung; a first-attempt-only corruption on every rank
// (group-wide, keeping keys in lockstep) is recovered by the sync rung.
func TestVerifiedRetryHostLadder(t *testing.T) {
	const p = 4
	w, ctxs := initWorld(t, p, Options{VerifiedRetry: 1})
	verifier, err := NewVerifier(0x1ADD)
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range ctxs {
		fired := false
		ctx.SetFaultInjector(func(cipher []byte) {
			if !fired {
				fired = true
				cipher[0] ^= 0x40
			}
		})
	}
	err = w.Run(testTimeout, func(c *mpi.Comm) error {
		data := []int64{int64(c.Rank()), 5}
		out := make([]int64, 2)
		if err := ctxs[c.Rank()].AllreduceInt64SumVerified(c, verifier, data, out); err != nil {
			return err
		}
		if out[0] != 6 || out[1] != 20 {
			return fmt.Errorf("rank %d: recovered sum = %v", c.Rank(), out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, ctx := range ctxs {
		if got := ctx.VerifiedRetries(); got != 1 {
			t.Errorf("rank %d VerifiedRetries() = %d, want 1", r, got)
		}
	}
}

// TestVerifiedRetryExhausts: a persistent per-rank corruption can never
// verify; the call fails closed with the typed verification error after
// the configured attempts rather than returning tampered data.
func TestVerifiedRetryExhausts(t *testing.T) {
	const p = 2
	w, ctxs := initWorld(t, p, Options{VerifiedRetry: 2})
	verifier, err := NewVerifier(0xBADBAD)
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range ctxs {
		ctx.SetFaultInjector(func(cipher []byte) { cipher[0] ^= 1 })
	}
	err = w.Run(testTimeout, func(c *mpi.Comm) error {
		out := make([]int64, 1)
		err := ctxs[c.Rank()].AllreduceInt64SumVerified(c, verifier, []int64{1}, out)
		var vf *ErrVerificationFailed
		if !errors.As(err, &vf) {
			return fmt.Errorf("rank %d: want wrapped *ErrVerificationFailed after exhausted retries, got %v", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVerifiedRetryZeroKeepsOldBehavior: the default configuration fails
// on the first error exactly as before the ladder existed.
func TestVerifiedRetryZeroKeepsOldBehavior(t *testing.T) {
	const p = 2
	w, ctxs := initWorld(t, p, Options{})
	verifier, err := NewVerifier(0x1234)
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range ctxs {
		calls := 0
		ctx.SetFaultInjector(func(cipher []byte) {
			calls++
			if calls > 1 {
				t.Error("VerifiedRetry=0 ran a second attempt")
			}
			cipher[0] ^= 1
		})
	}
	err = w.Run(testTimeout, func(c *mpi.Comm) error {
		out := make([]int64, 1)
		err := ctxs[c.Rank()].AllreduceInt64SumVerified(c, verifier, []int64{1}, out)
		var vf *ErrVerificationFailed
		if !errors.As(err, &vf) {
			return fmt.Errorf("rank %d: want *ErrVerificationFailed, got %v", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllreduceUnderFabricFaults runs the typed data path — sync and
// pipelined, ring and recursive doubling — over a fabric that drops,
// duplicates, reorders and corrupts messages, with RecvTimeout set. An
// unverified allreduce owes nothing about its result there; what it owes is
// that every call returns (a typed timeout or a wrong sum, never a hang or
// a panic). And because the runtime recycles a message buffer the moment
// its receiver has consumed it, a duplicated or held-back frame sharing its
// buffer with a delivered one would be a data race between that receiver's
// successor and the next sender — which is what running this under -race
// checks.
func TestAllreduceUnderFabricFaults(t *testing.T) {
	const p, rounds = 3, 6
	for _, fault := range []chaos.Fault{chaos.FaultDrop, chaos.FaultDuplicate, chaos.FaultReorder, chaos.FaultCorrupt} {
		for _, blockBytes := range []int{0, 1024} {
			for _, n := range []int{40, 1500} { // recursive doubling, ring
				rule := chaos.NewRule(chaos.LayerMPI, fault)
				rule.Prob = 0.2
				plan := chaos.NewPlan(0xFAB, rule)
				w, ctxs := initWorld(t, p, Options{PipelineBlockBytes: blockBytes, RecvTimeout: 100 * time.Millisecond})
				w.SetInterceptor(plan.MPIInterceptor())
				err := w.Run(testTimeout, func(c *mpi.Comm) error {
					send, recv := make([]int64, n), make([]int64, n)
					for i := 0; i < rounds; i++ {
						err := ctxs[c.Rank()].AllreduceInt64Sum(c, send, recv)
						if err != nil && !errors.Is(err, mpi.ErrTimeout) && !errors.Is(err, mpi.ErrRankExited) &&
							!strings.Contains(err.Error(), " B") { // a frame of another step's length
							return fmt.Errorf("%v block=%d n=%d round %d: %w", fault, blockBytes, n, i, err)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(plan.Events()) == 0 {
					t.Fatalf("%v block=%d n=%d: the rule never fired — the test exercised nothing", fault, blockBytes, n)
				}
			}
		}
	}
}
