package aggsvc

import (
	"net"
	"testing"
	"time"
)

type fakeAddr string

func (a fakeAddr) Network() string { return "tcp" }
func (a fakeAddr) String() string  { return string(a) }

type fakeConn struct {
	net.Conn
	remote net.Addr
}

func (c *fakeConn) RemoteAddr() net.Addr { return c.remote }

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestAssignCohortPolicies(t *testing.T) {
	conn := func(addr string) net.Conn { return &fakeConn{remote: fakeAddr(addr)} }

	t.Run("flat", func(t *testing.T) {
		s := newTestServer(t, Config{Group: 2})
		if c := s.assignCohort(conn("10.0.0.1:999")); c != 0 {
			t.Errorf("flat gateway assigned cohort %d", c)
		}
	})

	t.Run("static-pin", func(t *testing.T) {
		s := newTestServer(t, Config{Group: 2, Cohorts: 4,
			CohortStatic: map[string]int{"10.0.0.7": 3}})
		if c := s.assignCohort(conn("10.0.0.7:1234")); c != 3 {
			t.Errorf("pinned host assigned cohort %d, want 3", c)
		}
		// The pin is per host: a different port on the same host sticks.
		if c := s.assignCohort(conn("10.0.0.7:9")); c != 3 {
			t.Errorf("pinned host (other port) assigned cohort %d, want 3", c)
		}
	})

	t.Run("hash-stable-and-bounded", func(t *testing.T) {
		s := newTestServer(t, Config{Group: 2, Cohorts: 5})
		seen := map[int]bool{}
		for i := 0; i < 64; i++ {
			addr := fakeAddr("host-" + string(rune('a'+i%26)) + ":80").String()
			c1 := s.assignCohort(conn(addr))
			c2 := s.assignCohort(conn(addr))
			if c1 != c2 {
				t.Fatalf("host %q hashed to %d then %d", addr, c1, c2)
			}
			if c1 < 0 || c1 >= 5 {
				t.Fatalf("host %q assigned cohort %d outside [0, 5)", addr, c1)
			}
			seen[c1] = true
		}
		if len(seen) < 2 {
			t.Errorf("26 hosts all hashed to one cohort")
		}
	})

	t.Run("cohort-by-override", func(t *testing.T) {
		s := newTestServer(t, Config{Group: 2, Cohorts: 3,
			CohortBy: func(remote net.Addr) int { return len(remote.String()) % 3 }})
		if c := s.assignCohort(conn("ab:1")); c != len("ab:1")%3 {
			t.Errorf("override ignored: got %d", c)
		}
		// Out-of-range overrides fall back to cohort 0 instead of crashing
		// the round manager.
		s2 := newTestServer(t, Config{Group: 2, Cohorts: 3,
			CohortBy: func(net.Addr) int { return 99 }})
		if c := s2.assignCohort(conn("x:1")); c != 0 {
			t.Errorf("out-of-range override assigned cohort %d, want 0", c)
		}
	})
}

func TestConfigCohortValidation(t *testing.T) {
	if _, err := NewServer(Config{Group: 2, Cohorts: -1}); err == nil {
		t.Error("negative cohort count accepted")
	}
	if _, err := NewServer(Config{Group: 2, Cohorts: 2,
		CohortStatic: map[string]int{"h": 2}}); err == nil {
		t.Error("out-of-range static cohort accepted")
	}
}

// TestShardedRoundsFillIndependently pins the sharded round manager: two
// cohorts interleave joins without sharing rounds, and each fills at its
// own group size.
func TestShardedRoundsFillIndependently(t *testing.T) {
	m := roundManager{group: 2, timeout: time.Minute}
	p := roundParams{scheme: SchemeInt64Sum, elems: 4}

	r0a, _, created, aerr := m.join(&discardConn{}, p, 1, 0, partMeta{rank: -1})
	if aerr != nil || !created {
		t.Fatalf("cohort 0 first join: %v created=%v", aerr, created)
	}
	r1a, _, created, aerr := m.join(&discardConn{}, p, 5, 1, partMeta{rank: -1})
	if aerr != nil || !created {
		t.Fatalf("cohort 1 first join: %v created=%v", aerr, created)
	}
	if r0a == r1a || r0a.id == r1a.id {
		t.Fatal("cohorts share a round")
	}

	r0b, _, created, aerr := m.join(&discardConn{}, p, 2, 0, partMeta{rank: -1})
	if aerr != nil || created || r0b != r0a {
		t.Fatalf("cohort 0 second join: %v created=%v same=%v", aerr, created, r0b == r0a)
	}
	select {
	case <-r0a.fullCh:
	default:
		t.Fatal("cohort 0 round did not fill at group size")
	}
	select {
	case <-r1a.fullCh:
		t.Fatal("cohort 1 round filled with one participant")
	default:
	}
	// Flat manager: the epoch fixes at fill time as max(HELLO epochs)+1.
	if got, _ := r0a.sealEpoch(); got != 3 {
		t.Fatalf("cohort 0 seal epoch = %d, want 3", got)
	}

	// The filled round left the open table; the next cohort-0 join opens a
	// fresh one.
	r0c, _, created, aerr := m.join(&discardConn{}, p, 1, 0, partMeta{rank: -1})
	if aerr != nil || !created || r0c == r0a {
		t.Fatalf("post-fill join: %v created=%v fresh=%v", aerr, created, r0c != r0a)
	}
	for _, r := range []*roundState{r0a, r1a, r0c} {
		r.timer.Stop()
	}
}
