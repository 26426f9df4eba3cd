// Package mpi is a from-scratch message-passing runtime with MPI-style
// semantics: a World of P ranks (goroutines), point-to-point Send/Recv
// with (source, tag) matching and per-pair FIFO ordering, and the
// collectives HEAR relies on — Allreduce (four algorithms), the
// non-blocking Iallreduce used by libhear's pipelining, Bcast, Reduce,
// Allgather, Alltoall, Gather, Scatter, and Barrier.
//
// It substitutes for Cray MPICH in the paper's evaluation: HEAR only
// depends on the collective call structure (P ranks reducing element-wise
// with consistent indices), which this runtime provides with the same
// semantics. Per-rank traffic counters let experiments report bandwidth
// the way the paper does.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hear/internal/mempool"
)

// message is one in-flight point-to-point transfer. data is owned by the
// message: the sender copied into it, and whoever takes the message out of
// the mailbox is the only one left holding it.
type message struct {
	from int
	tag  int
	data []byte
}

// mailbox is a rank's receive queue with MPI matching: messages arrive in
// send order per (source, destination) pair, and Recv consumes the first
// message matching (source, tag), leaving non-matching ones queued.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []message
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(msg message) {
	m.mu.Lock()
	m.queue = append(m.queue, msg)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// AnySource matches messages from any rank.
const AnySource = -1

// get blocks until a matching message is available. Shutdown ordering: a
// queued matching message always wins — it is checked first on every wake
// — so a peer that sent and then exited is indistinguishable from a live
// peer. Only when no match is queued do the failure conditions apply, in
// order: world shutdown (ErrShutdown), a provably-dead source
// (ErrRankExited via dead), and an expired receive deadline (ErrTimeout).
// The timer and markExited both broadcast under m.mu, pairing with this
// loop's check-then-Wait so no wakeup is lost.
func (m *mailbox) get(from, tag int, timeout time.Duration, dead func(int) bool) (message, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if timeout > 0 {
		timer := time.AfterFunc(timeout, func() {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		})
		defer timer.Stop()
	}
	for {
		for i, msg := range m.queue {
			if (from == AnySource || msg.from == from) && msg.tag == tag {
				// Zero the vacated tail slot: left in place it would keep
				// a second reference to the last message's buffer, which
				// its receiver is about to recycle.
				last := len(m.queue) - 1
				copy(m.queue[i:], m.queue[i+1:])
				m.queue[last] = message{}
				m.queue = m.queue[:last]
				return msg, nil
			}
		}
		if m.closed {
			return message{}, fmt.Errorf("mpi: receiving (source %d, tag %d): %w", from, tag, ErrShutdown)
		}
		if from != AnySource && dead != nil && dead(from) {
			return message{}, fmt.Errorf("mpi: rank %d exited before sending (tag %d): %w", from, tag, ErrRankExited)
		}
		if timeout > 0 && !time.Now().Before(deadline) {
			return message{}, fmt.Errorf("mpi: no message (source %d, tag %d) within %v: %w", from, tag, timeout, ErrTimeout)
		}
		m.cond.Wait()
	}
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

// Stats counts a rank's traffic; experiments use it to report bandwidth
// and to demonstrate INC's 2x host-traffic reduction.
type Stats struct {
	BytesSent     atomic.Uint64
	BytesReceived atomic.Uint64
	MessagesSent  atomic.Uint64
}

// World is a communicator universe of P in-process ranks.
type World struct {
	size        int
	mailboxes   []*mailbox
	stats       []Stats
	exited      []atomic.Bool // per-rank: goroutine returned from Run's body
	interceptor Interceptor   // nil = deliver everything verbatim
	// bufs recycles message buffers. Ownership moves one way: the sender
	// takes a buffer and copies its payload in (sends stay eager), the
	// mailbox holds it, and the receiving goroutine puts it back once it has
	// copied or folded the payload out — never earlier, and never for a
	// message it did not consume.
	bufs mempool.Classes
}

// NewWorld creates a world of the given size. It panics on size < 1
// because no program can make progress in an empty world.
func NewWorld(size int) *World {
	if size < 1 {
		panic("mpi: world size must be >= 1")
	}
	w := &World{
		size:      size,
		mailboxes: make([]*mailbox, size),
		stats:     make([]Stats, size),
		exited:    make([]atomic.Bool, size),
	}
	for i := range w.mailboxes {
		w.mailboxes[i] = newMailbox()
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Stats returns the traffic counters of a rank.
func (w *World) Stats(rank int) *Stats { return &w.stats[rank] }

// Comm returns the communicator handle for one rank. Each handle must be
// used by a single goroutine at a time (like an MPI process).
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: rank %d outside world of size %d", rank, w.size))
	}
	return &Comm{world: w, rank: rank}
}

// Run spawns one goroutine per rank executing body and waits for all of
// them. Errors from all ranks are joined. A non-positive timeout means no
// watchdog; with a timeout, a hung collective surfaces as an error instead
// of deadlocking the test suite.
func (w *World) Run(timeout time.Duration, body func(c *Comm) error) error {
	for r := range w.exited {
		w.exited[r].Store(false)
	}
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer w.markExited(rank)
			defer func() {
				if rec := recover(); rec != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, rec)
				}
			}()
			errs[rank] = body(w.Comm(rank))
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	if timeout > 0 {
		select {
		case <-done:
		case <-time.After(timeout):
			for _, m := range w.mailboxes {
				m.close()
			}
			<-done
			return fmt.Errorf("mpi: world timed out after %v", timeout)
		}
	} else {
		<-done
	}
	return errors.Join(errs...)
}

// Comm is one rank's communicator handle. The world communicator has a
// nil group; sub-communicators created by Split carry a member list and a
// disjoint tag namespace.
type Comm struct {
	world       *World
	rank        int          // local rank within the communicator
	group       []int        // member world-ranks in rank order; nil = world
	tagBase     int          // tag namespace offset (0 for the world communicator)
	collSeq     int          // per-rank collective sequence; identical across ranks by MPI call-order semantics
	recvTimeout atomic.Int64 // receive deadline in ns; 0 = block forever (atomic: Iallreduce reads it off-goroutine)
}

// Rank returns this rank's index within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int {
	if c.group != nil {
		return len(c.group)
	}
	return c.world.size
}

// maxUserTag bounds user point-to-point tags; collective-internal tags
// live above it so user traffic can never match collective traffic.
const maxUserTag = 1 << 16

// Send delivers a copy of buf to rank `to` under tag. It is buffered
// (eager): it never blocks on the receiver.
func (c *Comm) Send(to, tag int, buf []byte) error {
	if err := c.checkPeer(to); err != nil {
		return err
	}
	if tag < 0 || tag >= maxUserTag {
		return fmt.Errorf("mpi: user tag %d outside [0, %d)", tag, maxUserTag)
	}
	c.send(to, c.tagBase+tag, buf)
	return nil
}

// send is the internal unchecked path used by collectives. to is a
// communicator-local rank; the wire tag must already be namespaced. The
// copy makes the send eager — buf is the caller's again on return — and
// lands in a recycled buffer that the receiver hands back.
func (c *Comm) send(to, tag int, buf []byte) {
	data := c.world.bufs.Get(len(buf))
	copy(data, buf)
	c.deliver(to, tag, data)
}

// deliver queues data, a buffer from the world's free list that the caller
// gives up, as one message to rank `to`.
func (c *Comm) deliver(to, tag int, data []byte) {
	self := c.worldRank(c.rank)
	dst := c.worldRank(to)
	st := &c.world.stats[self]
	st.BytesSent.Add(uint64(len(data)))
	st.MessagesSent.Add(1)
	c.world.stats[dst].BytesReceived.Add(uint64(len(data)))
	frames := [][]byte{data}
	if ic := c.world.interceptor; ic != nil {
		// The interceptor owns the copy: it may mutate, drop (nil), or
		// duplicate it. Stats above count the logical send exactly once
		// regardless, so traffic accounting stays fault-independent.
		frames = ic(self, dst, tag, data)
	}
	for _, f := range frames {
		c.world.mailboxes[dst].put(message{from: self, tag: tag, data: f})
	}
}

// Recv blocks until a message from `from` (or AnySource) with tag arrives,
// copies it into buf, and returns the payload length and the source rank.
// A message longer than buf is an error (truncation would corrupt data).
func (c *Comm) Recv(from, tag int, buf []byte) (int, int, error) {
	if from != AnySource {
		if err := c.checkPeer(from); err != nil {
			return 0, 0, err
		}
	}
	wireFrom := from
	if from != AnySource {
		wireFrom = c.worldRank(from)
	}
	msg, err := c.world.mailboxes[c.worldRank(c.rank)].get(wireFrom, c.tagBase+tag, c.RecvTimeout(), c.world.isDead)
	if err != nil {
		return 0, 0, err
	}
	if len(msg.data) > len(buf) {
		return 0, 0, fmt.Errorf("mpi: message of %d B exceeds receive buffer of %d B", len(msg.data), len(buf))
	}
	n := copy(buf, msg.data)
	c.world.bufs.Put(msg.data)
	src := c.localRank(msg.from)
	if src < 0 {
		return 0, 0, fmt.Errorf("mpi: message from non-member world rank %d leaked into communicator", msg.from)
	}
	return n, src, nil
}

// recv is the internal path used by collectives (tag already namespaced).
func (c *Comm) recv(from, tag int, buf []byte) (int, error) {
	msg, err := c.take(from, tag, len(buf))
	if err != nil {
		return 0, err
	}
	n := copy(buf, msg)
	c.world.bufs.Put(msg)
	return n, nil
}

// recvFold receives exactly count elements of dt from `from` and folds them
// into dst with op, straight from the message buffer.
func (c *Comm) recvFold(from, tag int, dst []byte, count int, dt Datatype, op Op) error {
	nb := count * dt.Size
	msg, err := c.take(from, tag, nb)
	if err != nil {
		return err
	}
	if len(msg) != nb {
		return fmt.Errorf("mpi: got %d B, want %d", len(msg), nb)
	}
	foldElems(op, dt, dst, msg, count)
	c.world.bufs.Put(msg)
	return nil
}

// take blocks for the next internal message from `from` under tag and
// returns its buffer, of at most limit bytes. The buffer is the caller's:
// it recycles it once the payload is consumed.
func (c *Comm) take(from, tag, limit int) ([]byte, error) {
	msg, err := c.world.mailboxes[c.worldRank(c.rank)].get(c.worldRank(from), tag, c.RecvTimeout(), c.world.isDead)
	if err != nil {
		return nil, err
	}
	if len(msg.data) > limit {
		return nil, fmt.Errorf("mpi: internal message of %d B exceeds buffer of %d B", len(msg.data), limit)
	}
	return msg.data, nil
}

// Sendrecv performs a simultaneous exchange, safe against head-on
// deadlock because sends are eager.
func (c *Comm) Sendrecv(to, sendTag int, sendBuf []byte, from, recvTag int, recvBuf []byte) (int, error) {
	if err := c.Send(to, sendTag, sendBuf); err != nil {
		return 0, err
	}
	n, _, err := c.Recv(from, recvTag, recvBuf)
	return n, err
}

func (c *Comm) checkPeer(rank int) error {
	if rank < 0 || rank >= c.Size() {
		return fmt.Errorf("mpi: peer rank %d outside communicator of size %d", rank, c.Size())
	}
	if rank == c.rank {
		return fmt.Errorf("mpi: self-messaging not supported (rank %d)", rank)
	}
	return nil
}

// nextCollTag reserves a fresh tag block for one collective call. MPI
// requires every rank to invoke collectives in the same order, so the
// per-rank sequence numbers agree without communication.
func (c *Comm) nextCollTag() int {
	c.collSeq++
	return c.tagBase + maxUserTag + c.collSeq
}
