package mempool

import (
	"sync"
	"testing"
)

func TestClasses(t *testing.T) {
	var p Classes
	if b := p.Get(0); len(b) != 0 {
		t.Fatalf("Get(0) returned %d B", len(b))
	}
	p.Put(nil) // a zero-length message's buffer: nothing to file
	for _, n := range []int{1, 2, 3, 63, 64, 65, 4096, 4097, 1<<20 - 1, 1 << 20, 1<<20 + 1} {
		b := p.Get(n)
		if len(b) != n || cap(b) < n {
			t.Fatalf("Get(%d): len %d cap %d", n, len(b), cap(b))
		}
		p.Put(b)
	}
	// A buffer of any capacity may come back (an interceptor can substitute
	// its own); it must never be handed out for a request it cannot hold.
	for _, c := range []int{1, 5, 100, 1000, 5000} {
		p.Put(make([]byte, c/2, c))
	}
	for n := 1; n <= 8192; n += 37 {
		if b := p.Get(n); len(b) != n || cap(b) < n {
			t.Fatalf("after foreign puts, Get(%d): len %d cap %d", n, len(b), cap(b))
		}
	}
}

// TestClassesConcurrentOwnership: buffers cross goroutines the way message
// buffers and gateway lanes do — taken on one, filled, handed over, checked
// and put back on another. A buffer handed out twice while owned would show
// up as a torn fill here, and as a race under -race.
func TestClassesConcurrentOwnership(t *testing.T) {
	var p Classes
	const workers, iters = 4, 500
	ch := make(chan []byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				b := p.Get(1 + (w*131+i*17)%3000)
				for j := range b {
					b[j] = byte(len(b))
				}
				ch <- b
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				b := <-ch
				for j := range b {
					if b[j] != byte(len(b)) {
						t.Errorf("buffer of %d B torn at byte %d", len(b), j)
						break
					}
				}
				p.Put(b)
			}
		}()
	}
	wg.Wait()
}
