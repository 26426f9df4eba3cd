package aggsvc

import (
	"errors"
)

// This file is the leaf side of hierarchical gateway federation: the
// gateway-of-gateways topology that scales HEAR rounds from one flat box
// to millions of clients. The same property that lets an untrusted switch
// aggregate — the canceling-noise schemes make every aggregator key-blind
// — lets partial folds cascade: a leaf gateway folds its cohort's sealed
// lanes with the keyless kernels, then acts as a *client* of an upstream
// gateway, submitting the partial aggregate over the ordinary
// HELLO/JOIN/SUBMIT/RESULT protocol. No tier can decrypt, and the folds
// are associative and commutative, so the cascaded aggregate is
// bit-identical to a flat round over the same client set.
//
// The one piece of shared state a cascade must thread through the tree is
// the seal epoch: every client of the whole federation has to seal at one
// agreed key epoch. The existing HELLO/JOIN epoch machinery already
// negotiates that for a flat round (JOIN names max(HELLO epochs)+1); a
// federated round reuses it verbatim, with one twist — a leaf advertises
// its cohort's *maximum* upstream, without the +1, and forwards the
// upstream JOIN's epoch verbatim down to its cohort. The +1 is applied
// exactly once, at the federation's root, so the cascaded epoch equals
// what a flat round over all the clients would have agreed on.

// UplinkRound is one upstream-tier exchange, run on behalf of a filled
// leaf round. Implementations (internal/aggsvc/federation) speak the wire
// protocol to the upstream gateway; the server core only sees the two
// rendezvous points a cascade needs.
type UplinkRound interface {
	// Negotiate opens the upstream round: it advertises the cohort's round
	// parameters and maximum HELLO epoch, blocks until the upstream JOIN
	// arrives, and returns the seal epoch the upstream tier fixed. The
	// leaf writes its own JOINs (and its cohort seals) only after this
	// returns.
	Negotiate(scheme uint8, elems int, tagged bool, cohortEpoch uint64) (sealEpoch uint64, err error)
	// Relay submits the cohort's folded partial lanes — declaring which
	// client ranks they cover, and whether that coverage is complete
	// (complete=false when this cohort's own round degraded) — blocks for
	// the globally reduced lanes, and writes them back into data and tags,
	// which the leaf then fans down as its RESULT. The lanes are the
	// round's own accumulators: they have been sent upstream in full before
	// the upstream RESULT can arrive, so overwriting them is safe, but only
	// with lanes of exactly their lengths — a mismatch is an error, checked
	// before anything is written. globalSurv is the upstream RESULT's
	// survivor union (nil when the global aggregate is complete); the leaf
	// forwards it verbatim in its own RESULT trailers so every client of
	// the tree cancels the same missing ranks. covers may be nil with
	// complete=true when the cohort's coverage cannot be expressed (unknown
	// ranks) — the upstream round can then only complete fully.
	Relay(data, tags []byte, covers []uint32, complete bool) (globalSurv []uint32, err error)
	// Close releases the upstream connection. It must be safe to call
	// concurrently with a blocked Negotiate or Relay — the server uses it
	// to cut a pending exchange loose when the leaf round dies underneath.
	Close() error
}

// UplinkDialer opens an upstream exchange for one cohort's round. A
// non-nil Config.Uplink turns the gateway into a leaf (or middle) tier of
// a federation.
type UplinkDialer func(cohort int) (UplinkRound, error)

// runCascade drives one federated round's upstream exchange. It runs on
// its own goroutine from round creation:
//
//	wait fill → Negotiate (upstream HELLO/JOIN) → fix the seal epoch →
//	wait local fold → Relay (upstream SUBMIT/RESULT) → resolve the relay
//
// Any failure aborts (pre-fold) or fails the relay stage of (post-fold)
// the round with the typed AbortUpstream, so a campaign can tell a dead
// upstream tier from a dead cohort. The goroutine holds a claim on the
// round's lanes (taken in roundManager.join) until it returns.
func (s *Server) runCascade(r *roundState) {
	defer r.cascadeDone()
	select {
	case <-r.fullCh:
	case <-r.doneCh:
		return // died while filling; nothing was promised upstream
	}
	u, err := s.cfg.Uplink(r.cohort)
	if err != nil {
		r.abort(AbortUpstream, "cohort %d: upstream dial failed: %v", r.cohort, err)
		return
	}
	defer u.Close()
	// If the leaf round aborts while we are parked inside the uplink
	// (upstream round still filling, say), cut the exchange loose so this
	// goroutine unwinds promptly instead of waiting out upstream timeouts.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-r.doneCh:
			if r.aborted() {
				u.Close()
			}
		case <-stop:
		}
	}()

	epoch, err := u.Negotiate(r.params.scheme, r.params.elems, r.params.tagged, r.cohortEpoch())
	if err != nil {
		s.relayFailures.Add(1)
		r.abort(AbortUpstream, "cohort %d: upstream negotiation failed: %v", r.cohort, err)
		return
	}
	r.fixEpoch(epoch)

	// The cohort now JOINs, seals, and submits; wait out the local fold.
	<-r.doneCh
	if r.aborted() {
		return
	}
	// The partial lanes go up zero-copy, and the global lanes come back into
	// the same accumulators: nothing folds into them once the local round is
	// over, and no participant reads them before the relay resolves. The
	// downlink RESULT fan-out then references them until the last
	// participant's write returns.
	covers, complete, coversOK := r.coverage()
	if !coversOK {
		covers, complete = nil, true
	}
	relayTm := s.phases.StartTimer(PhaseRelay)
	gsurv, err := u.Relay(r.data, r.tags, covers, complete)
	relayTm.Stop()
	if err != nil {
		s.relayFailures.Add(1)
		r.failRelay(upstreamAbort(r.id, err))
		return
	}
	s.roundsRelayed.Add(1)
	r.finishRelay(gsurv)
}

// upstreamAbort wraps an uplink failure as this round's typed abort,
// preserving the upstream tier's own abort code in the message so a
// multi-tier failure stays diagnosable from the leaves.
func upstreamAbort(round uint64, err error) *AbortError {
	var aerr *AbortError
	if errors.As(err, &aerr) {
		return &AbortError{Round: round, Code: AbortUpstream,
			Msg: "upstream round " + aerr.Code.String() + ": " + aerr.Msg}
	}
	return &AbortError{Round: round, Code: AbortUpstream, Msg: err.Error()}
}
