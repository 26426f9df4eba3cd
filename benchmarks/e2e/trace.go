package main

import (
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hear/internal/aggsvc"
	"hear/internal/core"
	"hear/internal/keys"
)

// The traced run records spans from this package only, around the calls
// into each layer: three decorators (core.Scheme, aggsvc.Sealer, net.Conn)
// sit between participant 0 and the program. Spans stay in memory and are
// written to -trace-out when the run ends.

// Span names. The root of every round is spanRound; its self time is what
// no layer below accounts for.
const (
	spanRound       = "round"
	spanMarshal     = "hear.marshal"
	spanRaw         = "mpi.wait" // the AllreduceRaw call; its self time is time with no kernel of participant 0 running
	spanEncrypt     = "core.encrypt"
	spanDecrypt     = "core.decrypt"
	spanReduce      = "core.reduce"
	spanSeal        = "sealer.seal"
	spanVerify      = "sealer.verify"
	spanOpen        = "sealer.open"
	spanHelloWrite  = "wire.hello_write"
	spanJoinWait    = "wire.join_wait"
	spanSubmitWrite = "wire.submit_write"
	spanResultWait  = "wire.result_wait"
	spanResultRead  = "wire.result_read"
)

// span is one timed interval; Start and End are nanoseconds since the
// recorder was created, Parent indexes the recorder's span list (-1 for a
// round's root).
type span struct {
	Name   string `json:"name"`
	Round  int    `json:"round"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
}

// recorder collects spans. Participant 0 opens and closes spans on its own
// goroutine with begin/end; kernels running on pool workers on its behalf
// add finished spans under whichever span participant 0 has open.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	open  atomic.Int64 // index of participant 0's innermost open span, -1 when none
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
	r.open.Store(-1)
	return r
}

// begin opens a span under participant 0's innermost open span.
func (r *recorder) begin(name string, round int) int {
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Round: round, Start: int64(time.Since(r.epoch)), Parent: int(r.open.Load())})
	r.mu.Unlock()
	r.open.Store(int64(id))
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	parent := r.spans[id].Parent
	r.mu.Unlock()
	r.open.Store(int64(parent))
}

// add records a finished span under participant 0's innermost open span;
// safe from any goroutine. Spans that finish while nothing is open (another
// participant's work) are dropped.
func (r *recorder) add(name string, start, end time.Time) {
	parent := int(r.open.Load())
	if parent < 0 {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Round: r.spans[parent].Round,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)), Parent: parent})
	r.mu.Unlock()
}

// writeTo writes the spans as one JSON array.
func (r *recorder) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedScheme times every kernel call made through it. It embeds the
// scheme, so methods a later change adds to core.Scheme pass through.
type tracedScheme struct {
	core.Scheme
	rec *recorder
}

func (s *tracedScheme) Encrypt(st *keys.RankState, plain, cipher []byte, n int) error {
	t := time.Now()
	err := s.Scheme.Encrypt(st, plain, cipher, n)
	s.rec.add(spanEncrypt, t, time.Now())
	return err
}

func (s *tracedScheme) EncryptAt(st *keys.RankState, plain, cipher []byte, n, off int) error {
	t := time.Now()
	err := s.Scheme.EncryptAt(st, plain, cipher, n, off)
	s.rec.add(spanEncrypt, t, time.Now())
	return err
}

func (s *tracedScheme) Decrypt(st *keys.RankState, cipher, plain []byte, n int) error {
	t := time.Now()
	err := s.Scheme.Decrypt(st, cipher, plain, n)
	s.rec.add(spanDecrypt, t, time.Now())
	return err
}

func (s *tracedScheme) DecryptAt(st *keys.RankState, cipher, plain []byte, n, off int) error {
	t := time.Now()
	err := s.Scheme.DecryptAt(st, cipher, plain, n, off)
	s.rec.add(spanDecrypt, t, time.Now())
	return err
}

func (s *tracedScheme) Reduce(dst, src []byte, n int) {
	t := time.Now()
	s.Scheme.Reduce(dst, src, n)
	s.rec.add(spanReduce, t, time.Now())
}

// tracedSealer times client 0's seal, verify and open. Embedding hides the
// sealer's optional interfaces from the client, which changes nothing for
// the default int64-sum sealer without degraded rounds or prefetching.
type tracedSealer struct {
	aggsvc.Sealer
	rec *recorder
}

func (s *tracedSealer) Seal(vals []int64, epoch uint64) (cipher, tags []byte, err error) {
	t := time.Now()
	cipher, tags, err = s.Sealer.Seal(vals, epoch)
	s.rec.add(spanSeal, t, time.Now())
	return cipher, tags, err
}

func (s *tracedSealer) Verify(reducedCipher, reducedTags []byte) error {
	t := time.Now()
	err := s.Sealer.Verify(reducedCipher, reducedTags)
	s.rec.add(spanVerify, t, time.Now())
	return err
}

func (s *tracedSealer) Open(reduced []byte, out []int64) error {
	t := time.Now()
	err := s.Sealer.Open(reduced, out)
	s.rec.add(spanOpen, t, time.Now())
	return err
}

// tracedConn sits under client 0 and timestamps Write and Read returns. A
// round on the wire is HELLO out, JOIN in, SUBMITs out, RESULT in, so each
// change of direction starts the next stage; the first read of an inbound
// stage is the wait for the gateway, the rest is transfer.
type tracedConn struct {
	net.Conn
	rec *recorder

	stage     int // 0 HELLO out, 1 JOIN in, 2 SUBMIT out, 3 RESULT in
	mark      time.Time
	bytesOut  int64
	bytesIn   int64
	submitted int64 // bytes written in stage 2
}

// beginRound resets the stage machine; the client calls nothing between
// rounds, so participant 0 does it before each Aggregate.
func (c *tracedConn) beginRound() {
	c.stage = 0
	c.mark = time.Now()
}

func (c *tracedConn) Write(b []byte) (int, error) {
	if c.stage == 1 {
		c.stage = 2
	}
	t := time.Now()
	n, err := c.Conn.Write(b)
	now := time.Now()
	name := spanHelloWrite
	if c.stage == 2 {
		name = spanSubmitWrite
		c.submitted += int64(n)
	}
	c.rec.add(name, t, now)
	c.bytesOut += int64(n)
	c.mark = now
	return n, err
}

func (c *tracedConn) Read(b []byte) (int, error) {
	waited := c.stage == 0 || c.stage == 2
	if waited {
		c.stage++
	}
	t := time.Now()
	n, err := c.Conn.Read(b)
	now := time.Now()
	switch {
	case waited && c.stage == 1:
		c.rec.add(spanJoinWait, c.mark, now)
	case waited:
		c.rec.add(spanResultWait, c.mark, now)
	case c.stage == 3:
		c.rec.add(spanResultRead, t, now)
	}
	c.bytesIn += int64(n)
	return n, err
}

// roundTimes is what one traced round of participant 0 looked like.
type roundTimes struct {
	wall int64            // the root span
	self map[string]int64 // time attributed to each span name, exclusive: sums to wall
	busy map[string]int64 // summed span durations per name, overlaps counted twice
	n    map[string]int   // spans per name
}

// analyse attributes every instant of each round to the deepest span open
// at that instant (shared equally when sibling spans overlap, as shards on
// two cores do), so a span's self time is its duration minus what its
// children cover and a round's rows sum to its wall time.
func analyse(spans []span) []roundTimes {
	byRound := map[int][]int{}
	var order []int
	for i, s := range spans {
		if s.End == 0 {
			continue // still open when the phase ended
		}
		if _, ok := byRound[s.Round]; !ok {
			order = append(order, s.Round)
		}
		byRound[s.Round] = append(byRound[s.Round], i)
	}
	sort.Ints(order)
	var out []roundTimes
	for _, round := range order {
		ids := byRound[round]
		rt := roundTimes{self: map[string]int64{}, busy: map[string]int64{}, n: map[string]int{}}
		cuts := make([]int64, 0, 2*len(ids))
		for _, i := range ids {
			s := spans[i]
			if s.Parent < 0 {
				rt.wall = s.End - s.Start
			}
			rt.busy[s.Name] += s.End - s.Start
			rt.n[s.Name]++
			cuts = append(cuts, s.Start, s.End)
		}
		if rt.wall == 0 {
			continue // a round whose root never closed
		}
		sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
		hasChild := map[int]bool{}
		var leaves []int
		for c := 0; c+1 < len(cuts); c++ {
			from, to := cuts[c], cuts[c+1]
			if from == to {
				continue
			}
			clear(hasChild)
			leaves = leaves[:0]
			for _, i := range ids {
				if spans[i].Start <= from && spans[i].End >= to {
					hasChild[spans[i].Parent] = true
					leaves = append(leaves, i)
				}
			}
			open := 0
			for _, i := range leaves {
				if !hasChild[i] {
					open++
				}
			}
			for _, i := range leaves {
				if !hasChild[i] {
					rt.self[spans[i].Name] += (to - from) / int64(open)
				}
			}
		}
		out = append(out, rt)
	}
	return out
}
