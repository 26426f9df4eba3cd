package main

import (
	"crypto/rand"
	"fmt"
	"time"

	"hear"
	"hear/internal/engine"
	"hear/internal/hfp"
	"hear/internal/mpi"
	"hear/internal/prf"
)

// allreduceRanks is fixed: a round waits for its slowest participant, so
// adding ranks turns one rank's tail latency into everybody's median.
const allreduceRanks = 2

// allreduceFixture is the in-process shape: allreduceRanks rank goroutines
// over internal/mpi, each calling one typed hear.Context entry point.
type allreduceFixture[T elem] struct {
	k      *kind[T]
	n      int
	opts   hear.Options
	call   func(*hear.Context, *mpi.Comm, []T, []T) error
	ctxs   []*hear.Context
	comms  []*mpi.Comm
	gates  []*gate[T]
	rec    *recorder     // nil until enableTrace
	scheme *tracedScheme // rank 0's scheme under the recorder
	times  setupTimes
}

func newAllreduce[T elem](env *env, k *kind[T], n int, opts hear.Options,
	call func(*hear.Context, *mpi.Comm, []T, []T) error) (fixture, error) {
	t0 := time.Now()
	w := mpi.NewWorld(allreduceRanks)
	ctxs, err := hear.Init(w, opts)
	if err != nil {
		return nil, err
	}
	f := &allreduceFixture[T]{k: k, n: n, opts: opts, call: call, ctxs: ctxs}
	in := newInputs(env.seed, n, allreduceRanks)
	for r := range ctxs {
		f.comms = append(f.comms, w.Comm(r))
		g := newGate(in, k, r)
		g.corruptAt = env.corruptAt
		f.gates = append(f.gates, g)
	}
	f.times.init = time.Since(t0)
	return f, nil
}

func (f *allreduceFixture[T]) setup() setupTimes { return f.times }

func (f *allreduceFixture[T]) plainBytes() float64 { return float64(f.n * f.k.size) }

// close has nothing to release: the cipher engine's idle workers cost
// nothing and the process exits after the run.
func (f *allreduceFixture[T]) close() {}

func (f *allreduceFixture[T]) participants() []participant {
	parts := make([]participant, len(f.ctxs))
	for r := range parts {
		g, ctx, comm := f.gates[r], f.ctxs[r], f.comms[r]
		parts[r] = func(round int, full bool) (time.Duration, error) {
			g.prepare(round)
			t := time.Now()
			var err error
			if r == 0 && f.rec != nil {
				err = f.tracedCall(round)
			} else {
				err = f.call(ctx, comm, g.send, g.out)
			}
			lat := time.Since(t)
			if err != nil {
				return lat, err
			}
			return lat, g.verify(round, full)
		}
	}
	return parts
}

func (f *allreduceFixture[T]) enableTrace(rec *recorder) error {
	s, err := f.ctxs[0].Scheme(f.k.scheme)
	if err != nil {
		return err
	}
	f.rec, f.scheme = rec, &tracedScheme{Scheme: s, rec: rec}
	return nil
}

// tracedCall is rank 0's round under the recorder. The typed entry points
// take no scheme, so it does what they do — marshal, the encrypted
// collective on the wire buffer, unmarshal — with the decorated scheme
// passed to AllreduceRaw.
func (f *allreduceFixture[T]) tracedCall(round int) error {
	g := f.gates[0]
	root := f.rec.begin(spanRound, round)
	defer f.rec.end(root)

	m := f.rec.begin(spanMarshal, round)
	buf := f.k.marshal(g.send)
	f.rec.end(m)

	raw := f.rec.begin(spanRaw, round)
	err := f.ctxs[0].AllreduceRaw(f.comms[0], f.scheme, buf, len(g.send))
	f.rec.end(raw)
	if err != nil {
		return err
	}

	m = f.rec.begin(spanMarshal, round)
	f.k.unmarshal(buf, g.out)
	f.rec.end(m)
	return nil
}

// counters reads the shared cipher engine's cumulative shard timings.
func (f *allreduceFixture[T]) counters() map[string]float64 {
	b := f.ctxs[0].EngineBreakdown()
	return map[string]float64{
		"engine.encrypt_ns":     float64(b.Sum(engine.PhaseEncryptShard)),
		"engine.decrypt_ns":     float64(b.Sum(engine.PhaseDecryptShard)),
		"engine.reduce_ns":      float64(b.Sum(engine.PhaseReduceShard)),
		"engine.encrypt_shards": float64(b.Count(engine.PhaseEncryptShard)),
	}
}

// layers turns the traced phase's spans and counter deltas into this
// shape's per-layer metrics.
func (f *allreduceFixture[T]) layers(m map[string]float64, tr *traced) {
	rounds := float64(tr.phase.rounds)
	m["hear.marshal_ms"] = tr.typedP50MS - tr.busyMS(spanRaw)
	m["mpi.wait_ms"] = tr.selfMS(spanRaw)
	for _, op := range []string{"encrypt", "decrypt", "reduce"} {
		m["core."+op+"_ms"] = tr.busyMS("core." + op)
		m["engine."+op+"_ms"] = tr.delta["engine."+op+"_ns"] / 1e6 / rounds
	}
	m["core.encrypt_ns_per_elem"] = m["core.encrypt_ms"] * 1e6 / float64(f.n)
	m["core.decrypt_ns_per_elem"] = m["core.decrypt_ms"] * 1e6 / float64(f.n)
	m["core.calls"] = tr.count(spanEncrypt) + tr.count(spanDecrypt) + tr.count(spanReduce)
	// Every rank makes one engine Encrypt call per pipeline block.
	blocks := 1
	if per := f.opts.PipelineBlockBytes / f.scheme.CipherSize(); per >= 1 && f.n > per {
		blocks = (f.n + per - 1) / per
	}
	m["engine.shards_per_call"] = tr.delta["engine.encrypt_shards"] / (rounds * allreduceRanks * float64(blocks))
}

// standalone measures what this shape's layers cost on their own: the
// plaintext collective of the same buffer (the paper's baseline) and the
// PRF keystream the scheme consumes.
func (f *allreduceFixture[T]) standalone(m map[string]float64, budget time.Duration) error {
	parts := make([]participant, len(f.comms))
	for r := range parts {
		comm, buf := f.comms[r], make([]byte, f.n*f.k.size)
		parts[r] = func(int, bool) (time.Duration, error) {
			t := time.Now()
			err := comm.Allreduce(buf, buf, f.n, f.k.plainType, f.k.plainOp)
			return time.Since(t), err
		}
	}
	plain := runPhase(parts, 0, 0, budget)
	if plain.err != nil {
		return fmt.Errorf("plaintext allreduce: %w", plain.err)
	}
	m["mpi.plain_allreduce_ms"] = plain.latencyMS(0.5)

	key := make([]byte, 16)
	if _, err := rand.Read(key); err != nil {
		return err
	}
	p, err := prf.New(prf.BackendAESFast, key)
	if err != nil {
		return err
	}
	stream := make([]byte, 16<<20)
	m["prf.keystream_gbps"] = gbps(len(stream), medianTime(5, func() { p.Keystream(stream, 1, 0) }))
	if f.k.scheme == hear.Float32Sum {
		// The float scheme draws hfp.NoiseBytes of keystream per element;
		// what is left of its encrypt time is software float arithmetic.
		noise := stream[:f.n*hfp.NoiseBytes]
		ks := medianTime(9, func() { p.Keystream(noise, 1, 0) })
		if enc := m["core.encrypt_ms"]; enc > 0 {
			m["hfp.share_pct"] = 100 * (1 - ks.Seconds()*1e3/enc)
		}
	}
	return nil
}
