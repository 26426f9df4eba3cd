package mpi

import "fmt"

// Bcast broadcasts buf from root to every rank (binomial tree).
func (c *Comm) Bcast(root int, buf []byte) error {
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("mpi: bcast root %d outside world", root)
	}
	return c.bcastWithTag(c.nextCollTag(), root, buf)
}

func (c *Comm) bcastWithTag(tag, root int, buf []byte) error {
	p := c.Size()
	if p == 1 {
		return nil
	}
	// Rotate so the binomial tree is rooted at rank 0: vrank 0 is the root,
	// every other vrank's parent is vrank with its highest set bit cleared,
	// and its children are vrank + mask for masks above that bit.
	vrank := (c.Rank() - root + p) % p
	childMask := 1
	if vrank != 0 {
		parent := vrank &^ (1 << (bitLen(vrank) - 1))
		if _, err := c.recv((parent+root)%p, tag, buf); err != nil {
			return err
		}
		childMask = 1 << bitLen(vrank)
	}
	for mask := childMask; vrank+mask < p; mask <<= 1 {
		c.send(((vrank+mask)+root)%p, tag, buf)
	}
	return nil
}

// bitLen is bits.Len for non-negative ints.
func bitLen(x int) int {
	n := 0
	for x > 0 {
		x >>= 1
		n++
	}
	return n
}

// Reduce reduces count elements into recvBuf on root only. recvBuf is
// ignored on non-root ranks (may be nil there) and may alias sendBuf on
// root; sendBuf is never written otherwise.
func (c *Comm) Reduce(root int, sendBuf, recvBuf []byte, count int, dt Datatype, op Op) error {
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("mpi: reduce root %d outside world", root)
	}
	nb := count * dt.Size
	if count <= 0 || len(sendBuf) < nb {
		return fmt.Errorf("mpi: reduce: bad count %d or send buffer %d B", count, len(sendBuf))
	}
	if c.Rank() == root && len(recvBuf) < nb {
		return fmt.Errorf("mpi: reduce: root receive buffer %d B < %d", len(recvBuf), nb)
	}
	tag := c.nextCollTag()
	// Reduce into rank 0's virtual position rooted at `root` by rotation.
	// The root accumulates in recvBuf; every other rank accumulates in a
	// message buffer, which it hands to its parent as the message itself.
	p, r := c.Size(), c.Rank()
	vrank := (r - root + p) % p
	var acc []byte
	if vrank == 0 {
		acc = recvBuf[:nb]
	} else {
		acc = c.world.bufs.Get(nb)
	}
	copy(acc, sendBuf[:nb])
	for mask := 1; mask < p; mask <<= 1 {
		if vrank&mask != 0 {
			c.deliver(((vrank-mask)+root)%p, tag, acc)
			return nil
		}
		if vrank+mask < p {
			if err := c.recvFold(((vrank+mask)+root)%p, tag, acc, count, dt, op); err != nil {
				return err
			}
		}
	}
	return nil
}

// Allgather gathers each rank's sendBuf (count elements) into recvBuf
// (size × count elements, rank-ordered) on every rank, via the ring
// algorithm.
func (c *Comm) Allgather(sendBuf, recvBuf []byte, count int, dt Datatype) error {
	p, r := c.Size(), c.Rank()
	nb := count * dt.Size
	if count <= 0 || len(sendBuf) < nb || len(recvBuf) < p*nb {
		return fmt.Errorf("mpi: allgather: bad buffers (%d, %d B) for %d × %d elements", len(sendBuf), len(recvBuf), p, count)
	}
	tag := c.nextCollTag()
	copy(recvBuf[r*nb:(r+1)*nb], sendBuf[:nb])
	if p == 1 {
		return nil
	}
	right, left := (r+1)%p, (r-1+p)%p
	for s := 0; s < p-1; s++ {
		sendIdx := (r - s + p) % p
		recvIdx := (r - s - 1 + p) % p
		c.send(right, tag, recvBuf[sendIdx*nb:(sendIdx+1)*nb])
		if _, err := c.recv(left, tag, recvBuf[recvIdx*nb:(recvIdx+1)*nb]); err != nil {
			return err
		}
	}
	return nil
}

// Alltoall sends block i of sendBuf to rank i and receives block r from
// every rank i into recvBuf block i. Both buffers hold size × count
// elements.
func (c *Comm) Alltoall(sendBuf, recvBuf []byte, count int, dt Datatype) error {
	p, r := c.Size(), c.Rank()
	nb := count * dt.Size
	if count <= 0 || len(sendBuf) < p*nb || len(recvBuf) < p*nb {
		return fmt.Errorf("mpi: alltoall: buffers too small for %d × %d elements", p, count)
	}
	tag := c.nextCollTag()
	copy(recvBuf[r*nb:(r+1)*nb], sendBuf[r*nb:(r+1)*nb])
	// Eager sends make the naive exchange deadlock-free; stagger targets to
	// avoid hot-spotting a single receiver.
	for s := 1; s < p; s++ {
		to := (r + s) % p
		from := (r - s + p) % p
		c.send(to, tag, sendBuf[to*nb:(to+1)*nb])
		if _, err := c.recv(from, tag, recvBuf[from*nb:(from+1)*nb]); err != nil {
			return err
		}
	}
	return nil
}

// Gather collects each rank's count elements into root's recvBuf.
func (c *Comm) Gather(root int, sendBuf, recvBuf []byte, count int, dt Datatype) error {
	p, r := c.Size(), c.Rank()
	if root < 0 || root >= p {
		return fmt.Errorf("mpi: gather root %d outside world", root)
	}
	nb := count * dt.Size
	if count <= 0 || len(sendBuf) < nb {
		return fmt.Errorf("mpi: gather: bad send buffer")
	}
	tag := c.nextCollTag()
	if r == root {
		if len(recvBuf) < p*nb {
			return fmt.Errorf("mpi: gather: receive buffer %d B < %d", len(recvBuf), p*nb)
		}
		copy(recvBuf[r*nb:(r+1)*nb], sendBuf[:nb])
		for i := 0; i < p; i++ {
			if i == root {
				continue
			}
			if _, err := c.recv(i, tag, recvBuf[i*nb:(i+1)*nb]); err != nil {
				return err
			}
		}
		return nil
	}
	c.send(root, tag, sendBuf[:nb])
	return nil
}

// Scatter distributes block i of root's sendBuf to rank i's recvBuf.
func (c *Comm) Scatter(root int, sendBuf, recvBuf []byte, count int, dt Datatype) error {
	p, r := c.Size(), c.Rank()
	if root < 0 || root >= p {
		return fmt.Errorf("mpi: scatter root %d outside world", root)
	}
	nb := count * dt.Size
	if count <= 0 || len(recvBuf) < nb {
		return fmt.Errorf("mpi: scatter: bad receive buffer")
	}
	tag := c.nextCollTag()
	if r == root {
		if len(sendBuf) < p*nb {
			return fmt.Errorf("mpi: scatter: send buffer %d B < %d", len(sendBuf), p*nb)
		}
		for i := 0; i < p; i++ {
			if i == root {
				continue
			}
			c.send(i, tag, sendBuf[i*nb:(i+1)*nb])
		}
		copy(recvBuf[:nb], sendBuf[r*nb:(r+1)*nb])
		return nil
	}
	_, err := c.recv(root, tag, recvBuf[:nb])
	return err
}

// Barrier blocks until every rank has entered it (dissemination barrier,
// ⌈log₂P⌉ rounds).
func (c *Comm) Barrier() error {
	p, r := c.Size(), c.Rank()
	if p == 1 {
		return nil
	}
	tag := c.nextCollTag()
	var token [1]byte
	for dist := 1; dist < p; dist <<= 1 {
		to := (r + dist) % p
		from := (r - dist + p) % p
		c.send(to, tag, token[:])
		if _, err := c.recv(from, tag, token[:]); err != nil {
			return err
		}
	}
	return nil
}
