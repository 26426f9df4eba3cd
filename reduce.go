package hear

// Encrypted MPI_Reduce. The paper singles out "Allreduce, together with
// the related Reduce collective" as the most commonly invoked operations;
// Reduce rides the same schemes — every rank encrypts, the reduction runs
// over ciphertexts (host tree or INC), and only the root decrypts. The
// telescoped noise F(k_s_0 + k_c + j) is removable by any rank holding
// rank 0's key, which per §5's key generation is every rank — so the root
// may be arbitrary.

import (
	"fmt"

	"hear/internal/mpi"
)

// reduceTyped is the body of every typed Reduce: the sync allreduce's
// round (marshal into the context's ciphertext buffer, no per-call
// buffers) with only the root decrypting; recv may be nil elsewhere.
func reduceTyped[T any](c *Context, comm *mpi.Comm, root int, kind SchemeKind, cd codec[T], send, recv []T) error {
	s, err := c.Scheme(kind)
	if err != nil {
		return err
	}
	if c.rank == root && len(recv) < len(send) {
		return fmt.Errorf("hear: recv %d < send %d", len(recv), len(send))
	}
	if err := c.checkComm(comm); err != nil {
		return err
	}
	if root < 0 || root >= c.size {
		return fmt.Errorf("hear: reduce root %d outside communicator", root)
	}
	n := len(send)
	if n == 0 {
		return fmt.Errorf("hear: reduce: empty vector")
	}
	c.st.Advance()
	op := mpi.OpFrom("hear/"+s.Name(), c.eng.ReduceFunc(s))
	return c.syncRound(s, words[T]{cd, send, recv}, n, c.rank == root, func(cipher []byte) error {
		// The root reduces into its own ciphertext buffer (Comm.Reduce
		// allows the alias); the other ranks receive nothing.
		var out []byte
		if c.rank == root {
			out = cipher
		}
		if err := comm.Reduce(root, cipher, out, n, mpi.CipherType(s.CipherSize()), op); err != nil {
			return fmt.Errorf("hear: reduce: %w", err)
		}
		return nil
	})
}

// ReduceInt64Sum reduces the element-wise wrapping sum to root; recv is
// written on root only (nil elsewhere is fine).
func (c *Context) ReduceInt64Sum(comm *mpi.Comm, root int, send []int64, recv []int64) error {
	return reduceTyped(c, comm, root, Int64Sum, int64Words, send, recv)
}

// ReduceFloat32Sum reduces the element-wise float sum (v1 scheme) to root.
func (c *Context) ReduceFloat32Sum(comm *mpi.Comm, root int, send []float32, recv []float32) error {
	return reduceTyped(c, comm, root, Float32Sum, float32Words, send, recv)
}

// ReduceUint64Prod reduces the element-wise wrapping product to root.
func (c *Context) ReduceUint64Prod(comm *mpi.Comm, root int, send []uint64, recv []uint64) error {
	return reduceTyped(c, comm, root, Int64Prod, uint64Words, send, recv)
}
