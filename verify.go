package hear

import (
	"errors"
	"fmt"

	"hear/internal/core"
	"hear/internal/core/fold"
	"hear/internal/homac"
	"hear/internal/inc"
	"hear/internal/mpi"
)

// ErrVerificationFailed reports a failed HoMAC check: some network element
// tampered with the aggregation (§5.5).
type ErrVerificationFailed struct {
	Element int
}

func (e *ErrVerificationFailed) Error() string {
	return fmt.Sprintf("hear: result verification failed at element %d: the network modified the aggregate", e.Element)
}

// verifyPath is one rung of the verified allreduce degradation ladder.
// Retries step down the ladder: the in-network tree is fastest but has the
// most hardware in the blast radius; the pipelined host path removes the
// switches; the sync host path is the minimal, most conservative data
// path. A retry never climbs back up — if the fancy path just failed, the
// retry's job is to finish, not to re-test it.
type verifyPath int

const (
	vpINC           verifyPath = iota // (c, σ) pair through the aggregation trees
	vpHostPipelined                   // both lanes in flight concurrently (Iallreduce)
	vpHostSync                        // sequential blocking collectives
)

func (p verifyPath) String() string {
	switch p {
	case vpINC:
		return "inc"
	case vpHostPipelined:
		return "host-pipelined"
	default:
		return "host-sync"
	}
}

// nextPath steps down the ladder; the sync host path is terminal.
func nextPath(p verifyPath) verifyPath {
	if p == vpINC {
		return vpHostPipelined
	}
	return vpHostSync
}

// retryableVerifiedError reports whether a verified-allreduce failure is
// worth re-running on a lower rung: tampering detected by the HoMAC check,
// or a timeout from the INC tree or the host runtime. Anything else (bad
// arguments, crypto errors) is deterministic and retrying cannot help.
func retryableVerifiedError(err error) bool {
	var vf *ErrVerificationFailed
	return errors.As(err, &vf) || errors.Is(err, inc.ErrTimeout) || errors.Is(err, mpi.ErrTimeout)
}

// AllreduceInt64SumVerified is AllreduceInt64Sum with homomorphic result
// authentication (§5.5): each ciphertext is paired with a HoMAC tag, the
// network sums both lanes, and every rank checks Σs == c_t + σ_t·Z before
// trusting the decryption. The tag lane doubles the traffic — the >200%
// inflation the paper quotes for 64-bit p — which is why verification is a
// separate opt-in call.
//
// verifier must be shared by all ranks (built from the same (p, Z) inside
// the secure environment; see NewVerifier).
//
// With Options.VerifiedRetry > 0 a failed round is re-run up to that many
// times, stepping down the degradation ladder INC → pipelined host → sync
// host. Every attempt re-advances the collective key, so a retried round
// is a fresh IND-CPA-clean encryption — but that also means retries only
// stay coherent when they are group-wide. They are for the failures this
// ladder targets: an INC round outcome (aggregate or timeout) is published
// identically to every rank, so all ranks see the same HoMAC verdict and
// re-advance in lockstep. Asymmetric failures (a host-path corruption seen
// by a subset of ranks) can desynchronize the key schedule, in which case
// every subsequent attempt fails verification too and the call fails
// closed — tampered data is never returned.
func (c *Context) AllreduceInt64SumVerified(comm *mpi.Comm, verifier *homac.Vector, send, recv []int64) error {
	if verifier == nil {
		return fmt.Errorf("hear: nil verifier")
	}
	if c.opts.INC != nil && c.opts.INCTags == nil {
		// The data tree folds mod 2^64, which breaks the mod-p tag
		// arithmetic. In-network verification needs a second tree whose
		// fold is TagFold (Options.INCTags).
		return fmt.Errorf("hear: verified allreduce over INC needs a mod-p tag tree (Options.INCTags)")
	}
	if len(recv) < len(send) {
		return fmt.Errorf("hear: recv %d < send %d", len(recv), len(send))
	}
	if c.opts.RecvTimeout > 0 && comm != nil {
		comm.SetRecvTimeout(c.opts.RecvTimeout)
	}

	path := vpHostPipelined
	if c.opts.INC != nil {
		path = vpINC
	}
	var err error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			path = nextPath(path)
		}
		c.mx.verifiedAttempts[path].Inc()
		err = c.verifiedAttempt(comm, verifier, send, recv, path)
		if err == nil {
			if attempt > 0 {
				c.verifiedRetries += attempt
				c.mx.verifiedRetries.Add(uint64(attempt))
			}
			return nil
		}
		if attempt >= c.opts.VerifiedRetry || !retryableVerifiedError(err) {
			break
		}
		if comm == nil {
			// The fallback rungs are host collectives; without a
			// communicator there is nothing to degrade onto.
			c.mx.verifiedFailures.Inc()
			return fmt.Errorf("hear: verified allreduce failed and no communicator for host fallback: %w", err)
		}
	}
	c.mx.verifiedFailures.Inc()
	if c.opts.VerifiedRetry > 0 {
		return fmt.Errorf("hear: verified allreduce failed after %d attempts (last path %s): %w",
			c.opts.VerifiedRetry+1, path, err)
	}
	return err
}

// VerifiedRetries returns the cumulative number of extra verified-allreduce
// attempts this context has needed (0 when every round succeeded first
// try). Recovery harnesses use it to assert the ladder actually engaged.
func (c *Context) VerifiedRetries() int { return c.verifiedRetries }

// verifiedAttempt runs one complete verified round — advance, encrypt,
// tag, reduce both lanes over the given path, verify, decrypt.
func (c *Context) verifiedAttempt(comm *mpi.Comm, verifier *homac.Vector, send, recv []int64, path verifyPath) error {
	s, err := c.intSum(64)
	if err != nil {
		return err
	}
	n := len(send)
	if path != vpINC {
		// The host rungs reduce over comm; refuse a nil or foreign one
		// before the key epoch advances.
		if err := c.checkComm(comm); err != nil {
			return err
		}
	}
	c.st.Advance()

	cipher, tagBytes, err := c.sealLanes(s, verifier, send)
	if err != nil {
		return err
	}
	// The network reduces both lanes: data mod 2^64, tags mod p.
	if err := c.reduceVerifiedLanes(comm, s, cipher, tagBytes, n, path); err != nil {
		return err
	}
	if c.faultInjector != nil {
		c.faultInjector(cipher)
	}
	// Verify before decrypting.
	if err := c.verifyLanes(verifier, cipher, tagBytes, nil, c.size); err != nil {
		return err
	}
	return c.openLanes(s, cipher, recv, nil)
}

// reduceVerifiedLanes reduces the (ciphertext, tag) pair over one ladder
// rung. The INC rung submits both lanes concurrently — they ride as a
// (c, σ) pair in §5.5, and concurrency keeps a stalled tree from
// serializing two full timeouts. The pipelined host rung keeps both lanes
// in flight with non-blocking collectives; the sync rung is the plain
// sequential path.
func (c *Context) reduceVerifiedLanes(comm *mpi.Comm, s core.Scheme, cipher, tagBytes []byte, n int, path verifyPath) error {
	dataOp := mpi.OpFrom("hear/"+s.Name(), s.Reduce)
	tagOp := mpi.OpFrom("hear/homac-sum", func(dst, src []byte, k int) {
		fold.SumMod61(dst[:k*8], src[:k*8])
	})
	switch path {
	case vpINC:
		if c.opts.INC == nil {
			return fmt.Errorf("hear: INC path selected without a tree")
		}
		errc := make(chan error, 1)
		go func() {
			errc <- c.opts.INCTags.Allreduce(c.rank, tagBytes)
		}()
		dataErr := c.opts.INC.Allreduce(c.rank, cipher)
		tagErr := <-errc
		if dataErr != nil {
			return fmt.Errorf("hear: INC data lane: %w", dataErr)
		}
		if tagErr != nil {
			return fmt.Errorf("hear: INC tag lane: %w", tagErr)
		}
		return nil
	case vpHostPipelined:
		dataReq, err := comm.Iallreduce(cipher, cipher, n, mpi.Uint64, dataOp)
		if err != nil {
			return fmt.Errorf("hear: data lane start: %w", err)
		}
		tagReq, err := comm.Iallreduce(tagBytes, tagBytes, n, mpi.Uint64, tagOp)
		if err != nil {
			// The data lane is already in flight; collect it before
			// surfacing the error so the communicator is left clean.
			derr := dataReq.Wait()
			if derr == nil {
				derr = err
			}
			return fmt.Errorf("hear: tag lane start: %w", derr)
		}
		dataErr := dataReq.Wait()
		tagErr := tagReq.Wait()
		if dataErr != nil {
			return fmt.Errorf("hear: data lane: %w", dataErr)
		}
		if tagErr != nil {
			return fmt.Errorf("hear: tag lane: %w", tagErr)
		}
		return nil
	default: // vpHostSync
		if err := comm.AllreduceAlgo(c.opts.Algorithm, cipher, cipher, n, mpi.Uint64, dataOp); err != nil {
			return fmt.Errorf("hear: data lane: %w", err)
		}
		if err := comm.AllreduceAlgo(c.opts.Algorithm, tagBytes, tagBytes, n, mpi.Uint64, tagOp); err != nil {
			return fmt.Errorf("hear: tag lane: %w", err)
		}
		return nil
	}
}

// SetFaultInjector installs (or clears, with nil) a hook that corrupts
// this rank's view of the reduced ciphertext before verification — the
// test and demo stand-in for a tampering network element on this rank's
// ejection path. Only verification-enabled calls consult it.
func (c *Context) SetFaultInjector(f func(reducedCipher []byte)) {
	c.faultInjector = f
}

// NewVerifier builds the shared HoMAC verifier from the communicator's
// secret verification key Z. All ranks must pass the same z (shared during
// initialization inside the secure environment).
func NewVerifier(z uint64) (*homac.Vector, error) {
	return homac.New(HoMACPrime, z)
}

// TagFold is the INC switch fold for the HoMAC tag lane: 64-bit lanes
// added mod the verification prime (the internal/core/fold kernel the
// aggregation gateway also runs). Build the Options.INCTags tree with it;
// the switch still needs no keys — the modulus is public.
func TagFold(dst, src []byte) { fold.SumMod61(dst, src) }
