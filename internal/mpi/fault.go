package mpi

import (
	"errors"
	"time"
)

// Typed failure sentinels. HEAR's threat model makes partial failure an
// expected condition, so the runtime's blocking primitives fail typed and
// bounded instead of hanging: callers match with errors.Is and decide
// whether to retry (hear's verified-retry ladder), fall back, or abort.
var (
	// ErrTimeout reports a receive that exceeded the communicator's recv
	// deadline (SetRecvTimeout). The message may still arrive later — the
	// mailbox is untouched — but the caller has been unblocked.
	ErrTimeout = errors.New("mpi: receive deadline exceeded")

	// ErrRankExited reports a receive from a rank whose goroutine has
	// already returned from the World.Run body without the awaited message
	// ever being sent. Because sends are eager (buffered before the sender
	// can exit), a matching message always wins over this error: it fires
	// only when the peer is provably never going to send.
	ErrRankExited = errors.New("mpi: peer rank exited")

	// ErrShutdown reports a receive interrupted by the world shutting down
	// (watchdog timeout in World.Run).
	ErrShutdown = errors.New("mpi: world shut down")
)

// Interceptor intercepts every message delivery in a world — the hook the
// chaos layer (internal/chaos) uses to model an adversarial fabric. It is
// called on the sender's goroutine with the already-copied wire data and
// returns the frames actually delivered, in order: nil drops the message,
// a two-element slice duplicates it, and the data may be mutated or
// replaced to model corruption. Returning the input unchanged is the
// identity. It must be installed before the world runs and must be safe
// for concurrent use (ranks send in parallel).
//
// Buffer ownership: data comes from the world's free list and the
// interceptor owns it from the call on. Every frame it returns — in this
// call or, for a frame it held back, a later one — must be a buffer of its
// own, sharing memory with no other frame it returns or still holds: the
// receiver of a frame recycles that frame's buffer as soon as it has
// consumed the payload, and the next sender then writes into it. A
// duplicate must therefore be a copy. A frame that is dropped, or held and
// never released, is simply never recycled; the collector takes it.
type Interceptor func(from, to, tag int, data []byte) [][]byte

// SetInterceptor installs (or clears, with nil) the delivery interceptor.
// Call it before any rank starts sending.
func (w *World) SetInterceptor(ic Interceptor) { w.interceptor = ic }

// SetRecvTimeout bounds every subsequent blocking receive on this
// communicator handle — user Recv and the receives inside collectives —
// returning an error wrapping ErrTimeout instead of hanging when no
// matching message arrives in time. Zero restores unbounded blocking.
// The setting is per-handle: sub-communicators from Split start unbounded.
func (c *Comm) SetRecvTimeout(d time.Duration) { c.recvTimeout.Store(int64(d)) }

// RecvTimeout returns the handle's current receive deadline (0 = none).
func (c *Comm) RecvTimeout() time.Duration { return time.Duration(c.recvTimeout.Load()) }

// isDead reports whether a rank's goroutine has returned from Run's body.
func (w *World) isDead(rank int) bool { return w.exited[rank].Load() }

// markExited flags a rank as gone and wakes every blocked receiver so
// waits on the dead rank resolve to ErrRankExited. The lock/unlock pair
// per mailbox pairs the flag store with each receiver's check-then-Wait
// critical section, so no wakeup is lost.
func (w *World) markExited(rank int) {
	w.exited[rank].Store(true)
	for _, m := range w.mailboxes {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}
