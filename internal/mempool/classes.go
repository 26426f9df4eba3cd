package mempool

import (
	"math/bits"
	"sync"
)

// Classes is a free list of variable-size byte buffers, one sync.Pool per
// power-of-two capacity class. Where Pool hands out fixed blocks under a
// budget, Classes recycles buffers whose size is only known per use: the
// in-process runtime's message buffers (internal/mpi) and the gateway's
// round lanes (internal/aggsvc). Ownership moves one way — whoever took a
// buffer puts it back once, when nothing reads or writes it any more.
// Retention is bounded by the garbage collector, which empties a sync.Pool
// that goes unused. The zero value is ready to use.
type Classes struct {
	classes [bits.UintSize]sync.Pool // class k holds *[]byte of capacity in [2^k, 2^(k+1))
}

// Get returns an n-byte buffer of unspecified content.
func (p *Classes) Get(n int) []byte {
	if n == 0 {
		return nil
	}
	k := bits.Len(uint(n - 1)) // smallest class whose every buffer holds n bytes
	if b, ok := p.classes[k].Get().(*[]byte); ok {
		return (*b)[:n]
	}
	return make([]byte, n, 1<<k)
}

// Put recycles a buffer. Any buffer is accepted (an mpi interceptor may
// have substituted its own); it is filed by capacity.
func (p *Classes) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	p.classes[bits.Len(uint(cap(b)))-1].Put(&b)
}
