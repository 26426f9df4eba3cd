package chaos

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"hear/internal/inc"
	"hear/internal/mpi"
)

// MPIInterceptor adapts the plan to the mpi runtime's delivery hook:
// world.SetInterceptor(plan.MPIInterceptor()). Faults apply per message at
// site (from, to, tag); Drop, Delay, Duplicate, Reorder and Corrupt are
// supported (CrashRank is consulted via CrashPoint, not here). It keeps
// mpi.Interceptor's buffer contract — the receiver recycles each delivered
// frame — by never returning one buffer twice: Duplicate delivers a copy,
// and a frame Reorder holds back leaves the held map when it is released.
func (p *Plan) MPIInterceptor() mpi.Interceptor {
	return func(from, to, tag int, data []byte) [][]byte {
		site := siteHash(uint64(LayerMPI), uint64(from), uint64(to), uint64(tag))
		siteStr := fmt.Sprintf("from=%d to=%d tag=%d", from, to, tag)
		match := func(r Rule) bool {
			return r.Fault != FaultCrashRank &&
				matches(from, r.Match.From) && matches(to, r.Match.To) && matches(tag, r.Match.Tag)
		}

		// A frame held back by a reorder rule at this site is released now,
		// after the current frame — the swap that models a reordering fabric.
		var released [][]byte
		p.mu.Lock()
		for i, r := range p.rules {
			if r.Layer != LayerMPI || r.Fault != FaultReorder || !match(r) {
				continue
			}
			key := counterKey{rule: i, site: site}
			if held := p.held[key]; held != nil {
				released = append(released, held)
				delete(p.held, key)
			}
		}
		p.mu.Unlock()

		idx, n := p.step(LayerMPI, site, siteStr, match)
		frames := [][]byte{data}
		if idx >= 0 {
			r := p.rules[idx]
			switch r.Fault {
			case FaultDrop:
				frames = nil
			case FaultDelay:
				time.Sleep(r.Delay)
			case FaultDuplicate:
				dup := make([]byte, len(data))
				copy(dup, data)
				frames = [][]byte{data, dup}
			case FaultCorrupt:
				p.corrupt(data, idx, site, n)
			case FaultReorder:
				p.mu.Lock()
				p.held[counterKey{rule: idx, site: site}] = data
				p.mu.Unlock()
				frames = nil
			}
		}
		return append(frames, released...)
	}
}

// INCInterceptor adapts the plan to the switch tree's frame hook:
// tree.SetInterceptor(plan.INCInterceptor(treeID)). treeID distinguishes
// the data and tag trees of a verified context so one plan can target a
// single tree. Faults apply per frame at site (tree, switch, fromRank,
// round); Drop, Delay, Corrupt and KillSwitch are supported. A killed
// switch swallows every later frame, modelling a dead ASIC rather than a
// lossy link.
func (p *Plan) INCInterceptor(treeID int) inc.Interceptor {
	return func(switchID, fromRank int, seq uint64, frame []byte) bool {
		p.mu.Lock()
		dead := p.killed[killKey(treeID, switchID)]
		p.mu.Unlock()
		if dead {
			return false
		}
		site := siteHash(uint64(LayerINC), uint64(treeID), uint64(switchID), uint64(int64(fromRank)), seq)
		siteStr := fmt.Sprintf("tree=%d switch=%d from=%d round=%d", treeID, switchID, fromRank, seq)
		match := func(r Rule) bool {
			return matches(switchID, r.Match.Switch) && matches(fromRank, r.Match.Rank) &&
				matches(int(seq), r.Match.Round)
		}
		idx, n := p.step(LayerINC, site, siteStr, match)
		if idx < 0 {
			return true
		}
		r := p.rules[idx]
		switch r.Fault {
		case FaultDrop:
			return false
		case FaultKillSwitch:
			p.mu.Lock()
			p.killed[killKey(treeID, switchID)] = true
			p.mu.Unlock()
			return false
		case FaultDelay:
			time.Sleep(r.Delay)
		case FaultCorrupt:
			p.corrupt(frame, idx, site, n)
		}
		return true
	}
}

func killKey(treeID, switchID int) int { return treeID<<16 | switchID }

// CrashPoint consults the plan at a rank's round boundary; a non-nil
// return (wrapping ErrCrashed) means the plan kills this rank here and
// the caller must abort instead of entering the round. Site: (rank); the
// event index is the call count, which equals the round when called once
// per round.
func (p *Plan) CrashPoint(rank, round int) error {
	site := siteHash(uint64(LayerMPI), 0xc4a54ed, uint64(rank))
	siteStr := fmt.Sprintf("rank=%d", rank)
	match := func(r Rule) bool {
		return r.Fault == FaultCrashRank && matches(rank, r.Match.Rank) && matches(round, r.Match.Round)
	}
	idx, _ := p.step(LayerMPI, site, siteStr, match)
	if idx < 0 {
		return nil
	}
	return fmt.Errorf("chaos: rank %d crashed at round %d: %w", rank, round, ErrCrashed)
}

// Conn is a net.Conn whose reads and writes pass through the plan.
// A FaultSever firing closes the underlying connection and fails every
// later op with ErrSevered.
type Conn struct {
	net.Conn
	plan    *Plan
	id      int
	severed atomic.Bool
}

// WrapConn wraps a connection under the plan with a caller-chosen stable
// ID (the site coordinate — reconnections should get fresh IDs).
// Faults apply per Read/Write call at site (conn, direction); Drop (the
// write is swallowed and reported successful), Delay, Corrupt and Sever
// are supported.
func (p *Plan) WrapConn(c net.Conn, id int) *Conn {
	return &Conn{Conn: c, plan: p, id: id}
}

const (
	dirRead  = 0
	dirWrite = 1
)

func (c *Conn) stepDir(dir int) (int, uint64, uint64) {
	site := siteHash(uint64(LayerConn), uint64(c.id), uint64(dir))
	siteStr := fmt.Sprintf("conn=%d dir=%d", c.id, dir)
	match := func(r Rule) bool {
		return matches(c.id, r.Match.Conn) && matches(dir, r.Match.Dir)
	}
	idx, n := c.plan.step(LayerConn, site, siteStr, match)
	return idx, n, site
}

func (c *Conn) Read(b []byte) (int, error) {
	if c.severed.Load() {
		return 0, ErrSevered
	}
	idx, evn, site := c.stepDir(dirRead)
	if idx < 0 {
		return c.Conn.Read(b)
	}
	r := c.plan.rules[idx]
	switch r.Fault {
	case FaultSever:
		c.severed.Store(true)
		c.Conn.Close()
		return 0, ErrSevered
	case FaultDelay:
		time.Sleep(r.Delay)
	}
	n, err := c.Conn.Read(b)
	if r.Fault == FaultCorrupt && n > 0 {
		c.plan.corrupt(b[:n], idx, site, evn)
	}
	return n, err
}

func (c *Conn) Write(b []byte) (int, error) {
	if c.severed.Load() {
		return 0, ErrSevered
	}
	idx, evn, site := c.stepDir(dirWrite)
	if idx < 0 {
		return c.Conn.Write(b)
	}
	r := c.plan.rules[idx]
	switch r.Fault {
	case FaultSever:
		c.severed.Store(true)
		c.Conn.Close()
		return 0, ErrSevered
	case FaultDrop:
		return len(b), nil // swallowed: the peer never sees these bytes
	case FaultDelay:
		time.Sleep(r.Delay)
	case FaultCorrupt:
		dup := make([]byte, len(b))
		copy(dup, b)
		c.plan.corrupt(dup, idx, site, evn)
		return c.Conn.Write(dup)
	}
	return c.Conn.Write(b)
}
