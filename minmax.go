package hear

// §5.4: "some operations such as min and max are not allowed due to
// security constraints. If we enable the network to compare two values and
// determine which is larger, the adversary can encrypt an increasing set
// of values and determine the plaintext. Thus, all these operations must
// either use FHE schemes or be performed within the TEEs."
//
// This file implements the TEE route: contributions travel to a designated
// rank under pairwise transport encryption (GatherEncrypted), the
// comparison happens inside that rank's secure environment, and the result
// returns via the collective-key broadcast. The network never executes a
// comparison, so the §5.4 attack has no surface — at the price of Θ(P)
// data at the root instead of in-network aggregation.

import (
	"encoding/binary"
	"fmt"

	"hear/internal/mpi"
)

// AllreduceMaxInt64 computes the element-wise maximum across ranks via the
// secure-environment route. Requires Options.EnableP2P (the gather leg
// rides the pairwise key matrix). root chooses which rank's secure
// environment performs the comparisons.
func (c *Context) AllreduceMaxInt64(comm *mpi.Comm, root int, send, recv []int64) error {
	return c.minmax(comm, root, send, recv, func(a, b int64) int64 {
		if b > a {
			return b
		}
		return a
	})
}

// AllreduceMinInt64 is the element-wise minimum via the same route.
func (c *Context) AllreduceMinInt64(comm *mpi.Comm, root int, send, recv []int64) error {
	return c.minmax(comm, root, send, recv, func(a, b int64) int64 {
		if b < a {
			return b
		}
		return a
	})
}

func (c *Context) minmax(comm *mpi.Comm, root int, send, recv []int64, pick func(a, b int64) int64) error {
	if err := c.checkComm(comm); err != nil {
		return err
	}
	if c.pairKeys == nil {
		return fmt.Errorf("hear: min/max needs the pairwise key matrix (set Options.EnableP2P)")
	}
	if root < 0 || root >= c.size {
		return fmt.Errorf("hear: root %d outside communicator", root)
	}
	if len(recv) < len(send) {
		return fmt.Errorf("hear: recv %d < send %d", len(recv), len(send))
	}
	n := len(send)
	if n == 0 {
		return fmt.Errorf("hear: empty vector")
	}
	buf := make([]byte, 8*n)
	if err := putInt64(send, buf); err != nil {
		return err
	}
	var gathered []byte
	if c.rank == root {
		gathered = make([]byte, c.size*len(buf))
	}
	// Leg 1: confidential transport to the root's secure environment.
	if err := c.GatherEncrypted(comm, root, buf, gathered); err != nil {
		return err
	}
	// Leg 2: the comparison, inside the secure environment only.
	result := make([]byte, len(buf))
	if c.rank == root {
		for j := 0; j < n; j++ {
			acc := int64(binary.LittleEndian.Uint64(gathered[j*8:]))
			for r := 1; r < c.size; r++ {
				v := int64(binary.LittleEndian.Uint64(gathered[r*len(buf)+j*8:]))
				acc = pick(acc, v)
			}
			binary.LittleEndian.PutUint64(result[j*8:], uint64(acc))
		}
	}
	// Leg 3: confidential broadcast of the result.
	if err := c.BcastEncrypted(comm, root, result); err != nil {
		return err
	}
	return getInt64(result, recv[:n])
}
