package hear

import (
	"fmt"
	"time"

	"hear/internal/core"
	"hear/internal/mpi"
)

// cipherBuf returns the context's n-byte ciphertext buffer for the sync
// data path: one buffer, grown geometrically to the largest message seen
// and reused by every later call (the rule Context.lanes follows), so
// repeated allreduces stop paying the mem_alloc/mem_free phases Figure 4
// charges to every call. The pipelined path has its own block pool. Valid
// until the next collective on this context.
func (c *Context) cipherBuf(n int) []byte { return growLane(&c.syncBuf, n) }

// operand is the plaintext side of one collective call, addressed in
// element blocks so the data path never needs the whole vector on the wire.
type operand interface {
	// stage returns the wire bytes of elements [off, off+n), ready to be
	// encrypted into cipher (exactly n ciphertext elements). The slice is
	// also where that block's decrypted result goes.
	stage(c *Context, cipher []byte, off, n int) ([]byte, error)
	// deliver hands the decrypted block, in the slice stage returned, back
	// to the caller's memory.
	deliver(plain []byte, off, n int) error
}

// rawWords is AllreduceRaw's operand: the caller's wire buffer of ps-byte
// elements, encrypted from and decrypted into where it lies.
type rawWords struct {
	buf []byte
	ps  int
}

func (r rawWords) stage(_ *Context, _ []byte, off, n int) ([]byte, error) {
	return r.buf[off*r.ps : (off+n)*r.ps], nil
}

func (r rawWords) deliver([]byte, int, int) error { return nil }

// words is a typed entry point's operand: each block of send is marshalled
// exactly once, into the memory it is encrypted in, and each decrypted
// block unmarshalled once into recv. For a zero-inflation scheme that
// memory is the ciphertext block itself — the kernels read every element
// before they write it (internal/core/fused.go), and engine shards then
// read and write the same byte ranges, so encrypting and decrypting in
// place is safe. An inflating scheme stages in c.plainBuf instead.
type words[T any] struct {
	cd         codec[T]
	send, recv []T
}

func (w words[T]) stage(c *Context, cipher []byte, off, n int) ([]byte, error) {
	// cipher is exactly n ciphertext elements, so equal byte lengths mean
	// equal element sizes: no inflation.
	plain := cipher
	if nb := n * w.cd.size; len(cipher) != nb {
		plain = growLane(&c.plainBuf, nb)
	}
	return plain, w.cd.put(w.send[off:off+n], plain)
}

func (w words[T]) deliver(plain []byte, off, n int) error {
	return w.cd.get(plain, w.recv[off:off+n])
}

// allreduce is the common encrypted data path: advance k_c, encrypt,
// reduce ciphertexts (host collectives, pipelined collectives, or the INC
// tree), decrypt. v holds the n plaintext elements and receives the
// result. Encrypt/decrypt/reduce run through the shared multicore cipher
// engine; small messages take its serial path.
func (c *Context) allreduce(comm *mpi.Comm, s core.Scheme, v operand, n int) error {
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
			return c.allreducePipelined(comm, s, v, n, blockElems)
		}
	}

	return c.syncRound(s, v, n, true, func(cipher []byte) error {
		if c.opts.INC != nil {
			c.mx.incCalls.Inc()
			if err := c.opts.INC.Allreduce(c.rank, cipher); err != nil {
				return fmt.Errorf("hear: INC reduction: %w", err)
			}
			return nil
		}
		c.mx.syncCalls.Inc()
		op := mpi.OpFrom("hear/"+s.Name(), c.eng.ReduceFunc(s))
		ct := mpi.CipherType(s.CipherSize())
		if err := comm.AllreduceAlgo(c.opts.Algorithm, cipher, cipher, n, ct, op); err != nil {
			return fmt.Errorf("hear: reduction: %w", err)
		}
		return nil
	})
}

// syncRound is one unpipelined encrypted collective in the context's
// ciphertext buffer: stage and encrypt all n elements of v, run reduce over
// the ciphertext in place, and on a rank that is left holding the result
// decrypt and deliver it.
func (c *Context) syncRound(s core.Scheme, v operand, n int, holdsResult bool, reduce func(cipher []byte) error) error {
	cipher := c.cipherBuf(n * s.CipherSize())
	plain, err := v.stage(c, cipher, 0, n)
	if err != nil {
		return err
	}
	if err := c.eng.Encrypt(s, c.st, plain, cipher, n); err != nil {
		return err
	}
	if err := reduce(cipher); err != nil || !holdsResult {
		return err
	}
	if err := c.eng.Decrypt(s, c.st, cipher, plain, n); err != nil {
		return err
	}
	return v.deliver(plain, 0, n)
}

// allreducePipelined is the §6 network-pipelining data path (Figure 6):
// the buffer is split into ciphertext blocks; while block i is being
// reduced by a non-blocking Iallreduce, block i+1 is encrypted and block
// i−1 decrypted, overlapping crypto with communication. Blocks come from
// the context's memory pool and the operand stages each block's plaintext
// in the block itself (or in context scratch when the scheme inflates), so
// the steady state allocates nothing proportional to the payload. The
// per-block crypto runs through the cipher engine, which shards large
// blocks across the worker pool — the engine's global-offset sharding
// composes with the pipeline's global-offset blocking, since both address
// the same counter-mode streams.
func (c *Context) allreducePipelined(comm *mpi.Comm, s core.Scheme, v operand, n, blockElems int) error {
	cs := s.CipherSize()
	op := mpi.OpFrom("hear/"+s.Name(), c.eng.ReduceFunc(s))

	type inflight struct {
		req   *mpi.Request
		buf   []byte // pool block; [:elems*cs] holds the ciphertext
		plain []byte // the block's staged plaintext; the decrypt target
		off   int    // element offset into the operand
		elems int
	}
	var prev *inflight
	finish := func(f *inflight) error {
		if err := f.req.Wait(); err != nil {
			return fmt.Errorf("hear: pipelined reduction: %w", err)
		}
		if err := c.eng.DecryptAt(s, c.st, f.buf[:f.elems*cs], f.plain, f.elems, f.off); err != nil {
			return err
		}
		if err := v.deliver(f.plain, f.off, f.elems); err != nil {
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
		plain, err := v.stage(c, block[:elems*cs], off, elems)
		if err != nil {
			return err
		}
		if err := c.eng.EncryptAt(s, c.st, plain, block[:elems*cs], elems, off); err != nil {
			return err
		}
		req, err := comm.Iallreduce(block[:elems*cs], block[:elems*cs], elems, mpi.CipherType(cs), op)
		if err != nil {
			return fmt.Errorf("hear: pipelined reduction start: %w", err)
		}
		cur := &inflight{req: req, buf: block, plain: plain, off: off, elems: elems}
		if prev != nil {
			if err := finish(prev); err != nil {
				return err
			}
		}
		prev = cur
	}
	return finish(prev)
}
