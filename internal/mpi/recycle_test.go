package mpi

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

// Message buffers are recycled: the sender copies into a buffer from the
// world's free list, the receiver hands it back after copying or folding
// the payload out. These tests hold the recycling to the contracts it must
// not bend — payloads stay intact, the mailbox keeps no second reference,
// a frame of the wrong length is an error — and pin what it buys.

// TestMailboxGetClearsVacatedSlot: removing a message shifts the queue
// down; the slot that falls off the end must not keep pointing at the last
// message's buffer, which its receiver will recycle.
func TestMailboxGetClearsVacatedSlot(t *testing.T) {
	m := newMailbox()
	for tag := 0; tag < 3; tag++ {
		m.put(message{from: 0, tag: tag, data: []byte{byte(tag)}})
	}
	for _, tag := range []int{1, 0, 2} {
		msg, err := m.get(0, tag, 0, nil)
		if err != nil || msg.data[0] != byte(tag) {
			t.Fatalf("get tag %d: %v %v", tag, msg, err)
		}
		for i, slot := range m.queue[len(m.queue):cap(m.queue)] {
			if slot.data != nil {
				t.Fatalf("after taking tag %d, vacated slot %d still references a buffer", tag, len(m.queue)+i)
			}
		}
	}
}

// TestRecycledBuffersKeepPayloads drives many rounds of mixed-size
// point-to-point traffic consumed out of arrival order, so buffers are
// recycled while later messages are still queued behind them.
func TestRecycledBuffersKeepPayloads(t *testing.T) {
	const rounds, tags = 200, 6
	payload := func(round, tag int) []byte {
		b := make([]byte, 1+(round*31+tag*17)%300)
		for i := range b {
			b[i] = byte(round + 3*tag + i)
		}
		return b
	}
	w := NewWorld(2)
	err := w.Run(testTimeout, func(c *Comm) error {
		peer := 1 - c.Rank()
		buf := make([]byte, 512)
		for round := 0; round < rounds; round++ {
			for tag := 0; tag < tags; tag++ {
				if err := c.Send(peer, tag, payload(round, tag)); err != nil {
					return err
				}
			}
			for k := 0; k < tags; k++ {
				tag := (round + 5*k) % tags // a permutation of the tags: 5 and 6 are coprime
				n, _, err := c.Recv(peer, tag, buf)
				if err != nil {
					return err
				}
				if want := payload(round, tag); string(buf[:n]) != string(want) {
					return fmt.Errorf("round %d tag %d: payload corrupted", round, tag)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectivesRepeatOnRecycledBuffers repeats every reduction on one
// world with fresh data each time, so every iteration after the first runs
// on buffers an earlier one released, and checks each against the plain
// sum. Reduce must also leave every rank's send buffer alone and accept the
// root's receive buffer aliasing it.
func TestCollectivesRepeatOnRecycledBuffers(t *testing.T) {
	const iters = 25
	for _, p := range []int{2, 3, 5, 8} {
		for _, count := range []int{p, 33, 1500} {
			w := NewWorld(p)
			err := w.Run(testTimeout, func(c *Comm) error {
				for it := 0; it < iters; it++ {
					want := make([]uint64, count)
					var mine []byte
					for r := 0; r < p; r++ {
						buf, vals := fillU64(rand.New(rand.NewSource(int64(it*100+r))), count)
						for j, v := range vals {
							want[j] += v
						}
						if r == c.Rank() {
							mine = buf
						}
					}
					check := func(what string, got []byte) error {
						for j := range want {
							if v := binary.LittleEndian.Uint64(got[j*8:]); v != want[j] {
								return fmt.Errorf("%s iter %d rank %d elem %d: got %d, want %d", what, it, c.Rank(), j, v, want[j])
							}
						}
						return nil
					}
					for _, algo := range []Algorithm{AlgoRing, AlgoRecursiveDoubling, AlgoReduceBcast} {
						recv := make([]byte, len(mine))
						if err := c.AllreduceAlgo(algo, mine, recv, count, Uint64, SumInt64); err != nil {
							return err
						}
						if err := check(algo.String(), recv); err != nil {
							return err
						}
					}
					root := it % p
					send := append([]byte(nil), mine...)
					var recv []byte
					if c.Rank() == root {
						recv = make([]byte, len(mine))
						if it%2 == 1 {
							recv = send // in place on the root
						}
					}
					if err := c.Reduce(root, send, recv, count, Uint64, SumInt64); err != nil {
						return err
					}
					if c.Rank() == root {
						if err := check("reduce", recv); err != nil {
							return err
						}
					}
					if (c.Rank() != root || it%2 == 0) && string(send) != string(mine) {
						return fmt.Errorf("reduce iter %d rank %d: send buffer modified", it, c.Rank())
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d count=%d: %v", p, count, err)
			}
		}
	}
}

// TestFoldRejectsWrongLengthFrame: the reduce steps fold straight from the
// received frame, so a frame that is not exactly the expected span must be
// an error — never a fold over whatever the recycled buffer held beyond it.
func TestFoldRejectsWrongLengthFrame(t *testing.T) {
	const p, count = 4, 64
	reductions := map[string]func(c *Comm, buf []byte) error{
		"ring": func(c *Comm, buf []byte) error { return c.AllreduceAlgo(AlgoRing, buf, buf, count, Uint64, SumInt64) },
		"rd": func(c *Comm, buf []byte) error {
			return c.AllreduceAlgo(AlgoRecursiveDoubling, buf, buf, count, Uint64, SumInt64)
		},
		"tree": func(c *Comm, buf []byte) error {
			return c.AllreduceAlgo(AlgoReduceBcast, buf, buf, count, Uint64, SumInt64)
		},
		"reduce": func(c *Comm, buf []byte) error { return c.Reduce(0, buf, buf, count, Uint64, SumInt64) },
	}
	for name, reduce := range reductions {
		for _, grow := range []bool{false, true} {
			w := NewWorld(p)
			w.SetInterceptor(func(from, to, tag int, data []byte) [][]byte {
				if grow {
					return [][]byte{append(data, 0)}
				}
				return [][]byte{data[:len(data)-1]}
			})
			errs := make([]error, p)
			w.Run(testTimeout, func(c *Comm) error {
				c.SetRecvTimeout(testTimeout / 20) // a rank whose peer bailed out must not hang
				errs[c.Rank()] = reduce(c, make([]byte, count*8))
				return nil
			})
			seen := false
			for _, err := range errs {
				if err != nil && (strings.Contains(err.Error(), "want") || strings.Contains(err.Error(), "exceeds")) {
					seen = true
				}
			}
			if !seen {
				t.Errorf("%s grow=%v: no rank reported the wrong-length frame: %v", name, grow, errs)
			}
		}
	}
}

// raceBuild reports whether the test binary runs under the race detector,
// whose sync.Pool drops items by design.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	if bi != nil {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestCollectiveAllocs pins the steady state of the reductions: with the
// message buffers recycled and every step folding straight from the frame,
// ring, recursive-doubling and tree allreduce and Reduce allocate under
// 2 % of the payload per call and rank.
func TestCollectiveAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("race-mode sync.Pool drops items; the gate runs race-free")
	}
	// A collection empties the buffer pools (that is what bounds their
	// retention); refilling them is not a per-call cost, so the collector
	// stays off while calls are counted.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const p, count, rounds = 4, 128 << 10, 50 // 1 MiB of uint64 per rank
	payload := count * 8
	calls := map[string]func(c *Comm, send, recv []byte) error{
		"ring": func(c *Comm, send, recv []byte) error {
			return c.AllreduceAlgo(AlgoRing, send, recv, count, Uint64, SumInt64)
		},
		"rd": func(c *Comm, send, recv []byte) error {
			return c.AllreduceAlgo(AlgoRecursiveDoubling, send, recv, count, Uint64, SumInt64)
		},
		"tree": func(c *Comm, send, recv []byte) error {
			return c.AllreduceAlgo(AlgoReduceBcast, send, recv, count, Uint64, SumInt64)
		},
		// Reduce never blocks a leaf rank, and an eager sender that laps the
		// root needs a fresh buffer per message still queued; the barrier
		// keeps the ranks in step, which is what steady state means here.
		"reduce": func(c *Comm, send, recv []byte) error {
			if err := c.Reduce(0, send, recv, count, Uint64, SumInt64); err != nil {
				return err
			}
			return c.Barrier()
		},
	}
	for name, call := range calls {
		w := NewWorld(p)
		send, recv := make([]byte, payload), make([][]byte, p)
		for r := range recv {
			recv[r] = make([]byte, payload)
		}
		run := func(n int) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := w.Run(testTimeout, func(c *Comm) error {
				for i := 0; i < n; i++ {
					if err := call(c, send, recv[c.Rank()]); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		run(3) // fill the free list
		perCall := float64(run(rounds)) / (rounds * p)
		if limit := 0.02 * float64(payload); perCall > limit {
			t.Errorf("%s: %.0f B allocated per call and rank, want < %.0f (2 %% of the payload)", name, perCall, limit)
		}
		t.Logf("%s: %.0f B per call and rank", name, perCall)
	}
}
