package mpi

import (
	"fmt"
)

// Algorithm selects an Allreduce implementation. The paper's evaluation
// exercises both latency-bound (16 B) and bandwidth-bound (16 MiB)
// regimes; the runtime provides the textbook algorithm for each plus a
// tree reduction mirroring the INC aggregation topology.
type Algorithm int

const (
	// AlgoAuto picks recursive doubling for small messages and the
	// bandwidth-optimal ring for large ones.
	AlgoAuto Algorithm = iota
	// AlgoRing is reduce-scatter + allgather: 2(P−1)/P · n bytes per rank,
	// bandwidth optimal for large messages.
	AlgoRing
	// AlgoRecursiveDoubling is ⌈log₂P⌉ rounds of full-vector exchange,
	// latency optimal for small messages.
	AlgoRecursiveDoubling
	// AlgoReduceBcast is a binomial reduce to rank 0 followed by a binomial
	// broadcast — the host-side analogue of tree aggregation.
	AlgoReduceBcast
)

func (a Algorithm) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoRing:
		return "ring"
	case AlgoRecursiveDoubling:
		return "recursive-doubling"
	case AlgoReduceBcast:
		return "reduce-bcast"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// smallMessageBytes is the auto-selection crossover.
const smallMessageBytes = 8192

// Allreduce reduces count elements of dt from sendBuf element-wise with op
// across all ranks and leaves the identical result in recvBuf on every
// rank. sendBuf and recvBuf may alias.
func (c *Comm) Allreduce(sendBuf, recvBuf []byte, count int, dt Datatype, op Op) error {
	return c.AllreduceAlgo(AlgoAuto, sendBuf, recvBuf, count, dt, op)
}

// AllreduceAlgo is Allreduce with an explicit algorithm choice.
func (c *Comm) AllreduceAlgo(algo Algorithm, sendBuf, recvBuf []byte, count int, dt Datatype, op Op) error {
	if err := c.checkCollArgs(sendBuf, recvBuf, count, dt); err != nil {
		return err
	}
	tag := c.nextCollTag()
	return c.allreduceWithTag(algo, tag, sendBuf, recvBuf, count, dt, op)
}

func (c *Comm) allreduceWithTag(algo Algorithm, tag int, sendBuf, recvBuf []byte, count int, dt Datatype, op Op) error {
	nb := count * dt.Size
	if &sendBuf[0] != &recvBuf[0] {
		copy(recvBuf[:nb], sendBuf[:nb])
	}
	if c.Size() == 1 {
		return nil
	}
	if algo == AlgoAuto {
		if nb <= smallMessageBytes || count < c.Size() {
			algo = AlgoRecursiveDoubling
		} else {
			algo = AlgoRing
		}
	}
	switch algo {
	case AlgoRing:
		if count < c.Size() {
			return fmt.Errorf("mpi: ring allreduce needs count >= size (%d < %d)", count, c.Size())
		}
		return c.ringAllreduce(tag, recvBuf, count, dt, op)
	case AlgoRecursiveDoubling:
		return c.rdAllreduce(tag, recvBuf, count, dt, op)
	case AlgoReduceBcast:
		if err := c.treeReduce(tag, recvBuf, count, dt, op); err != nil {
			return err
		}
		return c.bcastWithTag(tag, 0, recvBuf[:nb])
	default:
		return fmt.Errorf("mpi: unknown allreduce algorithm %v", algo)
	}
}

func (c *Comm) checkCollArgs(sendBuf, recvBuf []byte, count int, dt Datatype) error {
	if count < 0 {
		return fmt.Errorf("mpi: negative count %d", count)
	}
	if count == 0 {
		return fmt.Errorf("mpi: zero-element collective")
	}
	nb := count * dt.Size
	if len(sendBuf) < nb || len(recvBuf) < nb {
		return fmt.Errorf("mpi: buffers (%d, %d B) shorter than %d elements × %d B", len(sendBuf), len(recvBuf), count, dt.Size)
	}
	return nil
}

// chunkBounds splits count elements into size contiguous chunks whose
// lengths differ by at most one; it returns size+1 element offsets.
func chunkBounds(count, size int) []int {
	bounds := make([]int, size+1)
	base, rem := count/size, count%size
	off := 0
	for i := 0; i < size; i++ {
		bounds[i] = off
		off += base
		if i < rem {
			off++
		}
	}
	bounds[size] = off
	return bounds
}

// ringAllreduce: reduce-scatter then allgather around the ring.
func (c *Comm) ringAllreduce(tag int, buf []byte, count int, dt Datatype, op Op) error {
	p, r := c.Size(), c.Rank()
	bounds := chunkBounds(count, p)
	right := (r + 1) % p
	left := (r - 1 + p) % p

	chunk := func(i int) (off, elems int) {
		i = ((i % p) + p) % p
		return bounds[i] * dt.Size, bounds[i+1] - bounds[i]
	}

	// Reduce-scatter: after step s, partial sums flow around the ring;
	// rank r ends owning the fully reduced chunk (r+1) mod p.
	for s := 0; s < p-1; s++ {
		sendOff, sendN := chunk(r - s)
		recvOff, recvN := chunk(r - s - 1)
		c.send(right, tag, buf[sendOff:sendOff+sendN*dt.Size])
		if err := c.recvFold(left, tag, buf[recvOff:recvOff+recvN*dt.Size], recvN, dt, op); err != nil {
			return fmt.Errorf("mpi: ring step %d: %w", s, err)
		}
	}
	// Allgather: circulate the finished chunks.
	for s := 0; s < p-1; s++ {
		sendOff, sendN := chunk(r + 1 - s)
		recvOff, recvN := chunk(r - s)
		c.send(right, tag, buf[sendOff:sendOff+sendN*dt.Size])
		n, err := c.recv(left, tag, buf[recvOff:recvOff+recvN*dt.Size])
		if err != nil {
			return err
		}
		if n != recvN*dt.Size {
			return fmt.Errorf("mpi: ring allgather step %d: got %d B, want %d", s, n, recvN*dt.Size)
		}
	}
	return nil
}

// rdAllreduce: recursive doubling with the standard non-power-of-two
// pre/post folding.
func (c *Comm) rdAllreduce(tag int, buf []byte, count int, dt Datatype, op Op) error {
	p, r := c.Size(), c.Rank()
	nb := count * dt.Size

	p2 := 1
	for p2*2 <= p {
		p2 *= 2
	}
	rem := p - p2

	// Fold the rem extra ranks into their even partners.
	newRank := -1
	switch {
	case r < 2*rem && r%2 == 1:
		c.send(r-1, tag, buf[:nb])
	case r < 2*rem && r%2 == 0:
		if err := c.recvFold(r+1, tag, buf[:nb], count, dt, op); err != nil {
			return err
		}
		newRank = r / 2
	default:
		newRank = r - rem
	}

	if newRank >= 0 {
		for mask := 1; mask < p2; mask <<= 1 {
			partnerNew := newRank ^ mask
			partner := partnerNew
			if partnerNew < rem {
				partner = partnerNew * 2
			} else {
				partner = partnerNew + rem
			}
			c.send(partner, tag, buf[:nb])
			if err := c.recvFold(partner, tag, buf[:nb], count, dt, op); err != nil {
				return err
			}
		}
	}

	// Ship results back to the folded ranks.
	switch {
	case r < 2*rem && r%2 == 0:
		c.send(r+1, tag, buf[:nb])
	case r < 2*rem && r%2 == 1:
		if _, err := c.recv(r-1, tag, buf[:nb]); err != nil {
			return err
		}
	}
	return nil
}

// treeReduce: binomial reduce of buf into rank 0.
func (c *Comm) treeReduce(tag int, buf []byte, count int, dt Datatype, op Op) error {
	p, r := c.Size(), c.Rank()
	nb := count * dt.Size
	for mask := 1; mask < p; mask <<= 1 {
		if r&mask != 0 {
			c.send(r-mask, tag, buf[:nb])
			return nil
		}
		if r+mask < p {
			if err := c.recvFold(r+mask, tag, buf[:nb], count, dt, op); err != nil {
				return err
			}
		}
	}
	return nil
}

// Request tracks a non-blocking collective.
type Request struct {
	done chan struct{}
	err  error
}

// Wait blocks until the operation completes and returns its error.
func (r *Request) Wait() error {
	<-r.done
	return r.err
}

// Test reports completion without blocking.
func (r *Request) Test() (bool, error) {
	select {
	case <-r.done:
		return true, r.err
	default:
		return false, nil
	}
}

// Iallreduce starts a non-blocking Allreduce and returns immediately. The
// buffers must not be touched until Wait returns. libhear's pipelining
// (Figure 6) overlaps encryption of block n+1 and decryption of block n−1
// with the reduction of block n through exactly this call.
func (c *Comm) Iallreduce(sendBuf, recvBuf []byte, count int, dt Datatype, op Op) (*Request, error) {
	if err := c.checkCollArgs(sendBuf, recvBuf, count, dt); err != nil {
		return nil, err
	}
	tag := c.nextCollTag() // reserve in program order before going async
	req := &Request{done: make(chan struct{})}
	go func() {
		defer close(req.done)
		req.err = c.allreduceWithTag(AlgoAuto, tag, sendBuf, recvBuf, count, dt, op)
	}()
	return req, nil
}
