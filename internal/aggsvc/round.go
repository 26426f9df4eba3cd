package aggsvc

import (
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hear/internal/mempool"
)

// foldStripes is the number of stripe locks guarding a round's
// accumulators: chunks at different stripes fold concurrently across the
// worker pool, chunks landing on the same stripe serialize.
const foldStripes = 64

// roundParams are the properties every participant of a round must agree
// on; they are fixed by the first HELLO that opens the round.
type roundParams struct {
	scheme uint8
	elems  int
	tagged bool
}

// participant is one admitted client of a round.
type participant struct {
	slot      int
	conn      net.Conn
	parked    bool // handler may be blocked reading conn for this round; see pokeLocked
	dataGot   int  // bytes accepted on the data lane (in-order)
	tagGot    int  // bytes accepted on the tag lane
	submitted bool
	evicted   bool // straggler cut at the deadline under a quorum policy
	holds     bool // still counted in roundState.holders (see drop)

	// Identity from HELLO / SURVIVORS, consulted when a degraded round
	// needs to name its survivor set.
	rank     int      // key-schedule rank (-1 unknown)
	degraded bool     // FlagDegradedOK: can verify/open a survivor-set RESULT
	covers   []uint32 // explicit rank coverage (federation leaf); nil = {rank}
	coversOK bool     // covers declared complete for the sender's subtree

	// Degraded-mode staging (DegradedRounds only): SUBMIT chunks accumulate
	// privately per participant and fold into the shared accumulators only
	// once the last byte arrives, so a straggler killed mid-submit leaves
	// the survivors' fold untouched — the in-place fold cannot un-fold a
	// half-delivered lane (PROD noise factors are units, plaintexts need
	// not be). The stages come from the lane free list and belong to the
	// participant's handler goroutine alone: it fills, folds and returns
	// them (Server.putStages); the deadline and loss paths only mark the
	// participant evicted.
	delivered bool // every lane byte arrived; staged lanes folded (or folding)
	lane      []byte
	tagLane   []byte
}

// lanePool is the gateway's one free list for lane-sized buffers: round
// accumulators and degraded-mode stages. inUse counts buffers handed out
// and not yet returned (StatsMap lanes_inuse), so a test can see every
// lane come home after any outcome.
type lanePool struct {
	free  mempool.Classes
	inUse atomic.Int64
}

func (p *lanePool) get(n int) []byte {
	p.inUse.Add(1)
	return p.free.Get(n)
}

func (p *lanePool) put(b []byte) {
	p.inUse.Add(-1)
	p.free.Put(b)
}

// roundState is one aggregation round: N participants, two lane
// accumulators, a deadline, and a single outcome — RESULT for everyone or
// a typed ABORT for everyone.
//
// A federated round (one whose gateway has an Uplink) adds a second stage:
// after the local fold completes, the cascade driver relays the partial
// aggregate upstream and the round's RESULT carries the globally reduced
// lanes instead of the local ones. The seal epoch of a federated round is
// imposed by the upstream tier (fixEpoch) rather than derived locally.
type roundState struct {
	id        uint64
	cohort    int
	params    roundParams
	group     int
	quorum    int  // 0 = no eviction policy; see Config.Quorum
	federated bool // RESULT comes from the uplink, not the local fold
	// degradedMode (Config.DegradedRounds): stage submissions per
	// participant and, at the deadline with quorum met, complete the round
	// over the delivered set instead of failing closed.
	degradedMode bool

	deadline time.Time
	timer    *time.Timer

	// Lane accumulators, taken from lanes and seeded with the fold's
	// identity. Folding happens under per-stripe locks so chunks from
	// different regions proceed concurrently; all folds are commutative and
	// associative, so arrival order is irrelevant. A federated round's
	// relay overwrites them with the global aggregate. They go back to
	// lanes exactly once, in releaseLocked, and are nil from then on.
	data    []byte
	tags    []byte
	lanes   *lanePool
	stripes [foldStripes]sync.Mutex
	chunk   int

	mu       sync.Mutex
	parts    []*participant
	maxEpoch uint64 // highest key epoch any joiner advertised in HELLO
	finished int    // participants that submitted every lane byte
	tasks    int    // outstanding fold tasks
	holders  int    // admitted participants and the cascade goroutine not yet done with the lanes
	done     bool
	abortErr *AbortError
	fullCh   chan struct{} // closed when the membership seals at group size
	doneCh   chan struct{}
	endOnce  sync.Once // server-side end-of-round bookkeeping

	// Degraded completion state. expire sets degrading once the deadline
	// passes with quorum delivered; finalization then waits until every
	// survivor's staged fold has retired (finished == survivors) before
	// sealing the survivor union and closing doneCh with a nil abortErr.
	degrading bool
	survivors int         // delivered participants at the degrade point
	evictErr  *AbortError // handed to the evicted (and to survivors without FlagDegradedOK)
	survSet   []uint32    // survivor rank union; nil = complete aggregate
	resultSur []byte      // encoded RESULT survivor trailer (resultVectors)

	// Seal-epoch fix point. JOIN may only be written once the round's seal
	// epoch is known: immediately at fill for flat rounds, after the
	// upstream JOIN names it for federated ones. epochAt is when it was fixed
	// (the start of each participant's join-wake latency).
	epochSet   bool
	epochFixed uint64
	epochAt    time.Time

	// RESULT prefix scratch, encoded exactly once per round (resultVectors):
	// the round id + data length words and the tag length word that frame
	// the shared lane accumulators during vectored fan-out.
	resultOnce sync.Once
	resultPre  [12]byte
	resultTagN [4]byte

	// Relay stage (federated rounds only).
	relayCh   chan struct{} // closed when the uplink exchange resolves
	relaySet  bool
	relayErr  *AbortError
	globalSur []uint32 // survivor union from the upstream RESULT (nil = complete)
}

// laneSize returns the byte length of one lane.
func (r *roundState) laneSize() int { return r.params.elems * 8 }

// stripe returns the lock guarding the accumulator region of a chunk that
// starts at byte offset off.
func (r *roundState) stripe(off int) *sync.Mutex {
	return &r.stripes[(off/r.chunk)%foldStripes]
}

// taskAdded registers an outstanding fold task. It returns false when the
// round already ended (late chunks are dropped, not folded).
func (r *roundState) taskAdded() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return false
	}
	r.tasks++
	return true
}

// taskDone retires a fold task, completing the round if it was the last
// obligation — or, in an aborted round, releasing its lanes if it was the
// last thing still able to write them.
func (r *roundState) taskDone() {
	r.mu.Lock()
	r.tasks--
	r.maybeCompleteLocked()
	r.releaseLocked()
	r.mu.Unlock()
}

// drop ends p's claim on the round's lanes: its RESULT or ABORT write has
// returned, or it left before the round filled. Idempotent per participant
// (a pre-fill leaver may also pass through finishRound).
func (r *roundState) drop(p *participant) {
	r.mu.Lock()
	r.dropLocked(p)
	r.mu.Unlock()
}

func (r *roundState) dropLocked(p *participant) {
	if p.holds {
		p.holds = false
		r.holders--
		r.releaseLocked()
	}
}

// cascadeDone ends the cascade goroutine's claim on the round's lanes: it
// relays them upstream and writes the global aggregate back into them.
func (r *roundState) cascadeDone() {
	r.mu.Lock()
	r.holders--
	r.releaseLocked()
	r.mu.Unlock()
}

// releaseLocked returns the round's lanes to the free list once nothing can
// read or write them again. That takes three things, and the last of them
// to happen calls this:
//
//   - the round is over, so no new fold task or holder can arrive;
//   - every holder is done: each admitted participant has finished its
//     RESULT/ABORT write or left before fill, and the cascade goroutine
//     has returned;
//   - no fold task is outstanding. An aborted round can still have tasks
//     queued on the worker pool; foldChunk checks aborted() and then folds
//     without r.mu, so a lane released before they retire could take a
//     stale fold into the next round's accumulator.
//
// The lanes are nil afterwards, which also makes the release happen once.
func (r *roundState) releaseLocked() {
	if !r.done || r.holders > 0 || r.tasks > 0 || r.data == nil {
		return
	}
	r.lanes.put(r.data)
	if r.tags != nil {
		r.lanes.put(r.tags)
	}
	r.data, r.tags = nil, nil
}

// submitted marks a participant as fully delivered.
func (r *roundState) submitted(p *participant) {
	r.mu.Lock()
	if !p.submitted {
		p.submitted = true
		r.finished++
		r.maybeCompleteLocked()
	}
	r.mu.Unlock()
}

func (r *roundState) maybeCompleteLocked() {
	if r.done || r.tasks > 0 {
		return
	}
	if r.degrading {
		// Degraded finalization: every survivor's staged fold must retire.
		if r.finished < r.survivors {
			return
		}
	} else if r.finished < r.group || len(r.parts) < r.group {
		return
	}
	if r.degradedMode && !r.sealSurvivorsLocked() {
		// The delivered set cannot be named on the wire (unknown rank,
		// overlapping coverage): fail closed rather than mis-describe the
		// aggregate. Retryable — the next round re-forms without the dead.
		r.abortErr = &AbortError{Round: r.id, Code: AbortStraggler,
			Msg: fmt.Sprintf("round %d survivor set not expressible — retry", r.id)}
	}
	r.endLocked()
	close(r.doneCh)
}

// endLocked marks the round over and releases its deadline timer — both on
// completion and on every abort path, so a round that ends early never pins
// the timer (or, transitively, the participant connections its expire
// closure references) until the deadline would have fired.
func (r *roundState) endLocked() {
	r.done = true
	if r.timer != nil {
		r.timer.Stop()
		r.timer = nil
	}
	r.releaseLocked() // a round whose last participant left holds nothing
}

// markDelivered transitions a degraded-mode participant to delivered once
// its final staged lane byte has arrived. It returns false when the round
// already ended or the participant was evicted at the deadline — the caller
// must then discard the staged lanes unfolded instead of touching the
// shared accumulators.
func (r *roundState) markDelivered(p *participant) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done || p.evicted {
		return false
	}
	p.delivered = true
	return true
}

// markLost records a degraded-mode participant whose connection died
// mid-submit, before the deadline. Fail-closed rounds abort on any post-JOIN
// loss (the telescoping noise needs every rank), but a degraded round can
// survive it: the lost participant is marked evicted (its handler discards
// the stage on the way out), and the deadline either completes the round
// over the delivered survivors or fails it by quorum. Returns false when the
// round is already resolving — the caller falls back to the ordinary
// outcome paths.
func (r *roundState) markLost(p *participant) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done || r.degrading || p.evicted {
		return false
	}
	p.evicted = true
	return true
}

// sealSurvivorsLocked computes the round's survivor rank union at
// finalization. The round is partial when stragglers were evicted here or
// when any participant relayed coverage it declared incomplete (a leaf
// gateway whose own cohort degraded below us); a complete round leaves
// survSet nil so its RESULT carries no survivor trailer. Returns
// false when the surviving set cannot be expressed on the wire — a survivor
// of unknown rank, or two participants claiming the same rank.
func (r *roundState) sealSurvivorsLocked() bool {
	partial := false
	for _, p := range r.parts {
		if p.evicted {
			partial = true
		} else if p.covers != nil && !p.coversOK {
			partial = true
		}
	}
	if !partial {
		return true
	}
	seen := make(map[uint32]bool, len(r.parts))
	var union []uint32
	for _, p := range r.parts {
		if p.evicted {
			continue
		}
		ranks := p.covers
		if ranks == nil {
			if p.rank < 0 {
				return false
			}
			ranks = []uint32{uint32(p.rank)}
		}
		for _, rk := range ranks {
			if seen[rk] {
				return false
			}
			seen[rk] = true
			union = append(union, rk)
		}
	}
	if len(union) == 0 {
		return false
	}
	sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
	r.survSet = union
	return true
}

// coverage reports the rank set this round's fold covers and whether that
// set is complete — what a federation leaf forwards upstream so the root
// can name the global survivor union. Valid once the local outcome has
// resolved. ok=false means the coverage cannot be expressed (a participant
// of unknown rank, overlapping claims); the leaf then relays without a
// coverage declaration and the global round can only complete fully.
func (r *roundState) coverage() (ranks []uint32, complete bool, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.survSet != nil {
		return r.survSet, false, true
	}
	seen := make(map[uint32]bool, len(r.parts))
	for _, p := range r.parts {
		if p.evicted {
			return nil, false, false
		}
		rks := p.covers
		if rks == nil {
			if p.rank < 0 {
				return nil, true, false
			}
			rks = []uint32{uint32(p.rank)}
		}
		for _, rk := range rks {
			if seen[rk] {
				return nil, true, false
			}
			seen[rk] = true
			ranks = append(ranks, rk)
		}
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	return ranks, true, true
}

// pokeLocked interrupts p's handler if it is blocked reading its connection
// on this round's behalf, by arming a read deadline in the past. It is the
// round's only wake primitive and has one rule: a poke happens under r.mu
// and only while p is parked (admission → unpark), and the handler clears
// the deadline under the same lock. So no wake is lost — the deadline is
// sticky, a read that starts after the poke fails at once — and none lands
// late on a read that belongs to the connection's next round.
func (r *roundState) pokeLocked(p *participant) {
	if p.parked {
		p.conn.SetReadDeadline(time.Unix(1, 0))
	}
}

// woken reports whether awaitFull has nothing left to wait for — the seal
// epoch is fixed or the round is over — and if so clears the poke that said
// so. p stays parked: an abort must still reach its SUBMIT reads.
func (r *roundState) woken(p *participant) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.epochSet && !r.done {
		return false
	}
	p.conn.SetReadDeadline(time.Time{})
	return true
}

// unpark ends p's exposure to pokes and clears any that landed; the
// connection's next read belongs to whatever the client sends next.
func (r *roundState) unpark(p *participant) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p.parked = false
	p.conn.SetReadDeadline(time.Time{})
}

// abort fails the round with a typed error. The first abort wins.
func (r *roundState) abort(code AbortCode, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.done {
		r.failLocked(&AbortError{Round: r.id, Code: code, Msg: fmt.Sprintf(format, args...)})
	}
}

// failLocked ends the round with aerr for everyone: every parked reader is
// interrupted so its handler delivers the ABORT frame promptly instead of
// blocking until its own deadline, and the outcome waiters are released.
func (r *roundState) failLocked(aerr *AbortError) {
	r.endLocked()
	r.abortErr = aerr
	for _, p := range r.parts {
		r.pokeLocked(p)
	}
	r.parts = nil // release participant references; the round is over
	close(r.doneCh)
}

// outcome blocks until the round ends and returns its abort error (nil
// means the aggregate in r.data/r.tags is complete).
func (r *roundState) outcome() *AbortError {
	<-r.doneCh
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.abortErr
}

// aborted reports whether the round ended in failure.
func (r *roundState) aborted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done && r.abortErr != nil
}

// isEvicted reports whether a participant was cut as a straggler.
func (r *roundState) isEvicted(p *participant) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return p.evicted
}

// evictionErr returns the typed error handed to participants evicted from a
// degrading round (nil when no eviction happened).
func (r *roundState) evictionErr() *AbortError {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evictErr
}

// slotOf reads a participant's slot under the round lock — pre-fill leaves
// renumber slots, so unsynchronized reads are only safe after fullCh.
func (r *roundState) slotOf(p *participant) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return p.slot
}

// sealEpoch is the key epoch this round's participants must seal at. For a
// flat round it is fixed at fill time as one past the highest epoch any
// participant advertised, so a rank that fell behind the group's key
// schedule catches up and nobody moves backwards. For a federated round it
// is whatever the upstream tier's JOIN named — the root of the federation
// applies the max+1 rule exactly once over every cohort's advertised
// maximum, so all clients of the whole tree seal at one epoch. Valid only
// once fixed (woken reported true); at is when that happened.
func (r *roundState) sealEpoch() (epoch uint64, at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epochFixed, r.epochAt
}

// cohortEpoch is the highest key epoch this round's participants advertised
// — what a leaf gateway forwards upstream in its own HELLO, *without* the
// +1 a flat round would apply: the increment belongs to the federation's
// root alone, so the cascaded epoch equals the flat-round epoch for the
// same client set. Stable once the membership seals.
func (r *roundState) cohortEpoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.maxEpoch
}

// fixEpoch fixes the round's seal epoch and wakes the JOIN writers parked in
// awaitFull. The first fix wins; flat rounds fix at fill, federated rounds
// when the upstream JOIN arrives.
func (r *roundState) fixEpoch(epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fixEpochLocked(epoch)
}

func (r *roundState) fixEpochLocked(epoch uint64) {
	if r.epochSet {
		return
	}
	r.epochSet = true
	r.epochFixed = epoch
	r.epochAt = time.Now()
	for _, p := range r.parts {
		r.pokeLocked(p)
	}
}

// finishRelay resolves a federated round's second stage once the uplink
// has written the globally reduced lanes into r.data/r.tags, with the
// global survivor union from the upstream RESULT (nil when the global
// aggregate is complete).
func (r *roundState) finishRelay(surv []uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.relaySet {
		return
	}
	r.relaySet = true
	r.globalSur = surv
	close(r.relayCh)
}

// failRelay resolves a federated round's second stage with a typed failure;
// every participant receives it as its round outcome.
func (r *roundState) failRelay(aerr *AbortError) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.relaySet {
		return
	}
	r.relaySet = true
	r.relayErr = aerr
	close(r.relayCh)
}

// relayOutcome blocks until the relay stage resolves and returns its
// failure (nil means the lanes now carry the global aggregate).
func (r *roundState) relayOutcome() *AbortError {
	<-r.relayCh
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.relayErr
}

// resultLanes returns the lanes RESULT carries: the round's accumulators,
// which hold the local fold — or, once a federated round's relay resolved,
// the global aggregate the uplink wrote back into them.
func (r *roundState) resultLanes() (data, tags []byte) { return r.data, r.tags }

// resultSurvivors returns the survivor rank union the RESULT must declare:
// the upstream tier's global union for a federated round (it strictly
// contains the local one), the locally sealed set otherwise. nil means the
// aggregate is complete.
func (r *roundState) resultSurvivors() []uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.federated {
		return r.globalSur
	}
	return r.survSet
}

// resultVectors returns the five slices whose concatenation is the RESULT
// payload: the 12-byte round-id/data-length prefix, the data lane, the
// 4-byte tag-length word, the tag lane, and — degraded rounds only — the
// survivor-set trailer (nil for a complete round). The prefixes and trailer are encoded
// exactly once per round regardless of participant count; the lanes are the
// round's accumulators themselves, referenced zero-copy. Callable only
// after the round's outcome (and relay, if federated) has resolved — from
// then on the lanes are immutable and every fan-out writer may read them
// concurrently, but nobody may write them (see DESIGN.md, "Zero-copy wire
// path").
func (r *roundState) resultVectors() (pre, data, tagN, tags, surv []byte) {
	data, tags = r.resultLanes()
	r.resultOnce.Do(func() {
		binary.LittleEndian.PutUint64(r.resultPre[0:8], r.id)
		binary.LittleEndian.PutUint32(r.resultPre[8:12], uint32(len(data)))
		binary.LittleEndian.PutUint32(r.resultTagN[:], uint32(len(tags)))
		if s := r.resultSurvivors(); s != nil {
			r.resultSur = encodeSurvivorList(s)
		}
	})
	return r.resultPre[:], data, r.resultTagN[:], tags, r.resultSur
}

// leave removes a participant from a round whose membership is still open —
// the pre-fill death path. Nothing has been sealed against this round yet
// (clients seal only after JOIN, which is only sent once the round fills),
// so the slot is simply freed, the remaining participants renumbered, and
// the leaver's claim on the lanes dropped. It reports whether the
// participant left and whether the round is now empty; both are false once
// the round has filled or ended, where a loss must instead fail the whole
// round.
func (r *roundState) leave(p *participant) (left, empty bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done || len(r.parts) == r.group {
		return false, false
	}
	for i, q := range r.parts {
		if q == p {
			r.parts = append(r.parts[:i], r.parts[i+1:]...)
			for j, rest := range r.parts {
				rest.slot = j
			}
			r.dropLocked(p)
			return true, len(r.parts) == 0
		}
	}
	return false, false
}

// expire handles the round deadline. HEAR's telescoping noise needs every
// participant's submission for a *silently complete* aggregate, so by
// default the round fails closed. A quorum policy changes the failure's
// shape: when at least quorum participants finished, the stragglers are
// marked evicted (their handlers drop the connection after the ABORT) and
// everyone gets the retryable AbortStraggler instead of AbortDeadline, so
// live clients re-round immediately against a gateway that has shed the
// dead weight.
//
// DegradedRounds goes one step further: if every delivered participant can
// verify and open a survivor-set RESULT (shared-group keys, known rank or
// coverage), the round *completes* over the delivered set — the evicted
// stragglers' staged lanes are discarded unfolded, the RESULT names the
// survivor union explicitly, and clients cancel exactly the missing ranks'
// noise. When the delivered set is not degradable (a survivor without
// FlagDegradedOK, unknown ranks), the round falls back to the evict-and-retry
// failure above rather than shipping an unopenable aggregate.
func (r *roundState) expire(timeout time.Duration) {
	r.mu.Lock()
	if r.done || r.degrading {
		r.mu.Unlock()
		return
	}
	if r.degradedMode && r.quorum > 0 && len(r.parts) == r.group {
		delivered := 0
		degradable := true
		for _, p := range r.parts {
			if !p.delivered {
				continue
			}
			delivered++
			if !p.degraded || (p.covers == nil && p.rank < 0) {
				degradable = false
			}
		}
		if delivered >= r.quorum && degradable {
			r.degrading = true
			r.survivors = delivered
			evicted := 0
			for _, p := range r.parts {
				if p.delivered {
					continue
				}
				p.evicted = true // its handler discards the partial stage
				evicted++
				// Unblock the straggler's pending read so its handler
				// delivers the eviction ABORT promptly.
				r.pokeLocked(p)
			}
			r.evictErr = &AbortError{Round: r.id, Code: AbortStraggler,
				Msg: fmt.Sprintf("deadline (%s) expired with %d/%d delivered; round degraded, %d stragglers evicted (quorum %d) — retry",
					timeout, delivered, r.group, evicted, r.quorum)}
			// Finalize now if every survivor's staged fold already retired;
			// otherwise the last submitted() call completes the round.
			r.maybeCompleteLocked()
			r.mu.Unlock()
			return
		}
	}
	if r.quorum > 0 && r.finished >= r.quorum && len(r.parts) > 0 {
		evicted := 0
		for _, p := range r.parts {
			if !p.submitted {
				p.evicted = true
				evicted++
			}
		}
		r.failLocked(&AbortError{Round: r.id, Code: AbortStraggler,
			Msg: fmt.Sprintf("deadline (%s) expired with %d/%d finished; %d stragglers evicted (quorum %d) — retry",
				timeout, r.finished, r.group, evicted, r.quorum)})
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	r.abort(AbortDeadline, "round %d deadline (%s) expired before all %d participants finished",
		r.id, timeout, r.group)
}

// roundManager shards arriving HELLOs into per-cohort rounds of exactly
// group participants: each cohort fills its own rounds independently, so
// one gateway multiplexes many concurrent rounds — the sharding a
// federation's leaf tier needs to keep millions of clients off a single
// round queue. Rounds are keyed by (round ID, cohort): IDs are globally
// unique across cohorts, and each cohort holds at most one filling round.
type roundManager struct {
	group     int
	quorum    int
	timeout   time.Duration
	chunk     int
	federated bool // rounds defer their seal epoch to the uplink
	degraded  bool // rounds complete over survivors at the deadline (Config.DegradedRounds)
	lanes     lanePool

	mu     sync.Mutex
	nextID uint64
	open   map[int]*roundState // cohort → collecting round; absent when none or sealed
}

// partMeta is the protocol identity a HELLO carries into join: the
// client's key-schedule rank (-1 unknown) and whether it declared itself
// able to verify and open a survivor-set RESULT.
type partMeta struct {
	rank       int
	degradedOK bool
}

// join admits a client into its cohort's open round (creating one if
// needed) and returns its participant record, plus whether this join
// created the round. A HELLO whose parameters disagree with the cohort's
// open round is refused without poisoning that round. epoch is the
// joiner's advertised key epoch; the round tracks the max so JOIN can name
// the group's agreed seal epoch.
func (m *roundManager) join(conn net.Conn, params roundParams, epoch uint64, cohort int, pm partMeta) (*roundState, *participant, bool, *AbortError) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.open == nil {
		m.open = make(map[int]*roundState)
	}
	r := m.open[cohort]
	created := false
	if r != nil && (r.params != params || r.aborted()) {
		if r.aborted() {
			// The open round died (deadline) before filling; start fresh.
			delete(m.open, cohort)
			r = nil
		} else {
			return nil, nil, false, &AbortError{Round: r.id, Code: AbortMismatch,
				Msg: fmt.Sprintf("open round %d has %d-element tagged=%v frames", r.id, r.params.elems, r.params.tagged)}
		}
	}
	if r == nil {
		r = &roundState{
			id:           m.nextID,
			cohort:       cohort,
			params:       params,
			group:        m.group,
			quorum:       m.quorum,
			federated:    m.federated,
			degradedMode: m.degraded,
			deadline:     time.Now().Add(m.timeout),
			data:         m.lanes.get(params.elems * 8),
			lanes:        &m.lanes,
			chunk:        m.chunk,
			fullCh:       make(chan struct{}),
			doneCh:       make(chan struct{}),
			relayCh:      make(chan struct{}),
		}
		m.nextID++
		created = true
		identitySeed(params.scheme, r.data)
		if params.tagged {
			r.tags = m.lanes.get(params.elems * 8)
			clear(r.tags) // SumMod61's identity
		}
		if m.federated {
			r.holders = 1 // the cascade goroutine's claim; see Server.runCascade
		}
		timeout := m.timeout
		r.timer = time.AfterFunc(timeout, func() { r.expire(timeout) })
		m.open[cohort] = r
	}
	p := &participant{conn: conn, parked: true, holds: true, rank: pm.rank, degraded: pm.degradedOK}
	r.mu.Lock()
	p.slot = len(r.parts) // assigned under the lock: pre-fill leaves renumber
	r.parts = append(r.parts, p)
	r.holders++
	if epoch > r.maxEpoch {
		r.maxEpoch = epoch
	}
	full := len(r.parts) == r.group
	if full {
		close(r.fullCh)
		if !m.federated {
			// Flat rounds know their seal epoch the moment the membership
			// seals; federated rounds wait for the upstream JOIN to name it.
			r.fixEpochLocked(r.maxEpoch + 1)
		}
	}
	r.mu.Unlock()
	if full {
		delete(m.open, cohort) // sealed: it no longer accepts joiners
	}
	return r, p, created, nil
}
