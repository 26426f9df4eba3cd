package hear

import (
	"fmt"
	"time"

	"hear/internal/core"
	"hear/internal/mpi"
)

// maxSyncCipherPool caps the retained sync-path ciphertext buffer; larger
// messages fall back to a transient allocation (at that size the copy
// and crypto dominate mem_alloc anyway, and the cap keeps an occasional
// huge allreduce from pinning its buffer in the context forever).
const maxSyncCipherPool = 4 << 20

// cipherBuf returns an n-byte ciphertext buffer for the sync data path
// and a release function. The context retains a single buffer, grown
// geometrically and reused by every later call it fits — growing for a
// large message keeps serving smaller ones, and a grow/shrink/grow train
// allocates only on genuine high-water-mark increases. Repeated
// allreduces therefore stop paying the mem_alloc/mem_free phases Figure 4
// charges to every call; the pipelined path has its own block pool. The
// release function is a no-op today (a Context is single-goroutine, so
// the buffer is free again by the next call) but stays in the signature
// so the recycling point remains explicit at the call site.
func (c *Context) cipherBuf(n int) ([]byte, func()) {
	if n > maxSyncCipherPool {
		return make([]byte, n), func() {}
	}
	if cap(c.syncBuf) < n {
		size := 4 << 10
		for size < n {
			size <<= 1
		}
		c.syncBuf = make([]byte, size)
	}
	return c.syncBuf[:n], func() {}
}

// allreduce is the common encrypted data path: advance k_c, encrypt,
// reduce ciphertexts (host collectives, pipelined collectives, or the INC
// tree), decrypt. plain is the wire representation of n elements and is
// overwritten with the result. Encrypt/decrypt/reduce run through the
// shared multicore cipher engine; small messages take its serial path.
func (c *Context) allreduce(comm *mpi.Comm, s core.Scheme, plain []byte, n int) error {
	// A nil communicator is fine only when an INC tree carries the
	// reduction; refuse it here, before the key epoch advances.
	if comm != nil || c.opts.INC == nil {
		if err := c.checkComm(comm); err != nil {
			return err
		}
	}
	if n <= 0 {
		return fmt.Errorf("hear: non-positive element count %d", n)
	}
	if len(plain) < n*s.PlainSize() {
		return fmt.Errorf("hear: buffer %d B < %d elements × %d B", len(plain), n, s.PlainSize())
	}
	if c.opts.RecvTimeout > 0 && comm != nil {
		comm.SetRecvTimeout(c.opts.RecvTimeout)
	}
	c.mx.plainBytes.Add(uint64(n * s.PlainSize()))
	t0 := time.Now()
	defer func() { c.mx.callSeconds.Observe(time.Since(t0).Seconds()) }()
	c.st.Advance()

	if c.opts.PipelineBlockBytes > 0 && comm != nil && c.opts.INC == nil {
		blockElems := c.opts.PipelineBlockBytes / s.CipherSize()
		if blockElems >= 1 && n > blockElems {
			c.mx.pipelinedCalls.Inc()
			return c.allreducePipelined(comm, s, plain, n, blockElems)
		}
	}

	cipher, release := c.cipherBuf(n * s.CipherSize())
	defer release()
	if err := c.eng.Encrypt(s, c.st, plain, cipher, n); err != nil {
		return err
	}
	if c.opts.INC != nil {
		c.mx.incCalls.Inc()
		if err := c.opts.INC.Allreduce(c.rank, cipher); err != nil {
			return fmt.Errorf("hear: INC reduction: %w", err)
		}
	} else {
		c.mx.syncCalls.Inc()
		op := mpi.OpFrom("hear/"+s.Name(), c.eng.ReduceFunc(s))
		ct := mpi.CipherType(s.CipherSize())
		if err := comm.AllreduceAlgo(c.opts.Algorithm, cipher, cipher, n, ct, op); err != nil {
			return fmt.Errorf("hear: reduction: %w", err)
		}
	}
	return c.eng.Decrypt(s, c.st, cipher, plain, n)
}

// allreducePipelined is the §6 network-pipelining data path (Figure 6):
// the buffer is split into ciphertext blocks; while block i is being
// reduced by a non-blocking Iallreduce, block i+1 is encrypted and block
// i−1 decrypted, overlapping crypto with communication. Blocks come from
// the context's memory pool, so the steady state allocates nothing. The
// per-block crypto runs through the cipher engine, which shards large
// blocks across the worker pool — the engine's global-offset sharding
// composes with the pipeline's global-offset blocking, since both address
// the same counter-mode streams.
func (c *Context) allreducePipelined(comm *mpi.Comm, s core.Scheme, plain []byte, n, blockElems int) error {
	ps, cs := s.PlainSize(), s.CipherSize()
	op := mpi.OpFrom("hear/"+s.Name(), c.eng.ReduceFunc(s))

	type inflight struct {
		req   *mpi.Request
		buf   []byte // pool block; [:elems*cs] holds the ciphertext
		off   int    // element offset into plain
		elems int
	}
	var prev *inflight
	finish := func(f *inflight) error {
		if err := f.req.Wait(); err != nil {
			return fmt.Errorf("hear: pipelined reduction: %w", err)
		}
		if err := c.eng.DecryptAt(s, c.st, f.buf[:f.elems*cs], plain[f.off*ps:], f.elems, f.off); err != nil {
			return err
		}
		return c.pool.Put(f.buf[:cap(f.buf)])
	}

	for off := 0; off < n; off += blockElems {
		elems := blockElems
		if off+elems > n {
			elems = n - off
		}
		block, err := c.pool.Get()
		if err != nil {
			return fmt.Errorf("hear: pipeline pool: %w", err)
		}
		if len(block) < elems*cs {
			return fmt.Errorf("hear: pool block %d B < ciphertext block %d B", len(block), elems*cs)
		}
		// EncryptAt keeps stream indices global across blocks: element j of
		// this block uses noise index off+j, so no index is ever reused
		// within one collective call (local safety holds across blocks).
		if err := c.eng.EncryptAt(s, c.st, plain[off*ps:], block[:elems*cs], elems, off); err != nil {
			return err
		}
		req, err := comm.Iallreduce(block[:elems*cs], block[:elems*cs], elems, mpi.CipherType(cs), op)
		if err != nil {
			return fmt.Errorf("hear: pipelined reduction start: %w", err)
		}
		cur := &inflight{req: req, buf: block, off: off, elems: elems}
		if prev != nil {
			if err := finish(prev); err != nil {
				return err
			}
		}
		prev = cur
	}
	return finish(prev)
}
