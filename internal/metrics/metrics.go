// Package metrics is HEAR's unified telemetry registry: named counters,
// gauges, and fixed-bucket histograms shared by every long-lived surface
// of the stack — the allreduce data paths, the verified-retry ladder, the
// cipher-engine worker pool, the chaos layer, and the aggregation
// gateway. The paper's evaluation attributes wall time to phases for
// one-shot benchmarks (internal/trace); this package is the live,
// exportable counterpart a service needs (the operational-visibility
// lesson of SHArP-scale collective deployments): one namespace, scraped at
// runtime, with identical counter semantics whether the reader is a
// Prometheus scrape, a STATS frame, or a benchmark report.
//
// Design constraints, in order:
//
//  1. Hot-path cost. Add/Inc/Set/Observe are single atomic operations on
//     pre-registered instruments — no map lookups, no locks, no
//     allocations (metrics_test.go pins 0 allocs/op). The registry mutex
//     is taken only at registration and snapshot time.
//  2. Dependency-free. Standard library only; instruments are plain
//     structs so internal packages can depend on this one without
//     dragging in anything else (the gateway's key-blindness dependency
//     test keeps holding).
//  3. Nil-safety. A nil *Registry returns nil instruments and every
//     instrument method is a no-op on a nil receiver, so call sites wire
//     metrics unconditionally and pay one predictable branch when the
//     operator left telemetry off.
//
// Existing stats that already live elsewhere (trace breakdowns,
// mempool counters, gateway round totals) publish through
// RegisterSource: a callback run at snapshot time that emits samples into
// the same namespace instead of double-counting into new instruments.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the exposition type of a sample or instrument.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	// KindUntyped marks source-emitted samples with no declared type.
	KindUntyped
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Labels are constant key/value pairs attached at registration time.
// Per-observation ("dynamic") labels are deliberately unsupported: they
// would force a map lookup onto the hot path. Register one instrument per
// label combination instead.
type Labels map[string]string

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 (worker-pool occupancy, active rounds).
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value. No-op on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value; 0 on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets chosen at registration.
// Buckets are upper bounds in ascending order; an implicit +Inf bucket
// catches the tail. Observe is lock-free: one linear scan over a handful
// of bounds (cache-resident, branch-predictable) plus three atomic adds.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; [i] counts v <= bounds[i]
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the total number of observations; 0 on a nil receiver.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values; 0 on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// DurationBuckets is a general-purpose latency ladder in seconds,
// 10 µs – 10 s in half-decade steps — wide enough for both a 16 B
// allreduce and a straggling gateway round.
var DurationBuckets = []float64{
	10e-6, 30e-6, 100e-6, 300e-6, 1e-3, 3e-3, 10e-3, 30e-3, 100e-3, 300e-3, 1, 3, 10,
}

// Sample is one exported time-series value, as produced by Gather.
type Sample struct {
	Name   string
	Labels Labels
	Kind   Kind
	// Value carries the counter/gauge/untyped reading.
	Value float64
	// Histogram-only fields; Buckets[i] is the non-cumulative count of
	// observations <= Bounds[i], with the final entry the +Inf bucket.
	Bounds  []float64
	Buckets []uint64
	Count   uint64
	Sum     float64
}

// key orders and deduplicates samples: name plus rendered labels.
func (s *Sample) key() string { return s.Name + "\x00" + renderLabels(s.Labels) }

// Source is a snapshot-time callback that publishes externally owned
// stats into the registry's namespace. It must emit quickly and must not
// call back into the registry's registration methods.
type Source func(emit func(Sample))

// Registry holds the registered instruments and sources. The zero value
// is not usable; call New. A nil *Registry is a valid "telemetry off"
// registry: registration methods return nil instruments.
type Registry struct {
	mu      sync.Mutex
	order   []*metric // registration order; Gather sorts anyway
	byKey   map[string]*metric
	sources []Source
}

type metric struct {
	name   string
	kind   Kind
	labels Labels
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// register interns (name, labels, kind); re-registration of the same
// name+labels returns the existing instrument so independent subsystems
// (e.g. several gateway clients in one process) share one counter.
// The instrument itself is allocated here, while r.mu is held, so two
// goroutines racing to register the same series always observe the same
// fully-built instrument (callers only read the field after return).
// Registering the same series under a different kind is a programming
// error and panics — silently exporting one series under two types would
// corrupt every downstream consumer.
func (r *Registry) register(name string, kind Kind, labels Labels, bounds []float64) *metric {
	name = SanitizeName(name)
	key := name + "\x00" + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("metrics: %s registered as both %s and %s", name, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, kind: kind, labels: copyLabels(labels)}
	switch kind {
	case KindCounter:
		m.c = &Counter{}
	case KindGauge:
		m.g = &Gauge{}
	case KindHistogram:
		b := make([]float64, len(bounds))
		copy(b, bounds)
		m.h = &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
	}
	r.byKey[key] = m
	r.order = append(r.order, m)
	return m
}

// Counter registers (or retrieves) a counter. Nil-registry safe.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, KindCounter, labels, nil).c
}

// Gauge registers (or retrieves) a gauge. Nil-registry safe.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, KindGauge, labels, nil).g
}

// Histogram registers (or retrieves) a histogram over the given bucket
// upper bounds (ascending; an +Inf bucket is implicit). Nil-registry
// safe. Re-registration keeps the original bounds.
func (r *Registry) Histogram(name string, labels Labels, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s bucket bounds not ascending at %d", name, i))
		}
	}
	return r.register(name, KindHistogram, labels, bounds).h
}

// RegisterSource adds a snapshot-time publisher. Nil-registry safe.
func (r *Registry) RegisterSource(s Source) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	r.sources = append(r.sources, s)
	r.mu.Unlock()
}

// Gather snapshots every instrument and source into a sorted, isolated
// sample set: the returned slice shares no memory with live instruments,
// so it stays stable while recording continues. Nil-registry safe
// (returns nil).
func (r *Registry) Gather() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := make([]*metric, len(r.order))
	copy(ms, r.order)
	srcs := make([]Source, len(r.sources))
	copy(srcs, r.sources)
	r.mu.Unlock()

	samples := make([]Sample, 0, len(ms))
	for _, m := range ms {
		s := Sample{Name: m.name, Labels: copyLabels(m.labels), Kind: m.kind}
		switch m.kind {
		case KindCounter:
			s.Value = float64(m.c.Value())
		case KindGauge:
			s.Value = float64(m.g.Value())
		case KindHistogram:
			s.Bounds = append([]float64(nil), m.h.bounds...)
			s.Buckets = make([]uint64, len(m.h.buckets))
			for i := range m.h.buckets {
				s.Buckets[i] = m.h.buckets[i].Load()
			}
			// Read count after buckets: count is incremented after the
			// bucket on the observe path, so this order can undercount but
			// never report a count with no bucket to hold it.
			s.Count = m.h.Count()
			s.Sum = m.h.Sum()
		}
		samples = append(samples, s)
	}
	for _, src := range srcs {
		src(func(s Sample) {
			s.Name = SanitizeName(s.Name)
			s.Labels = copyLabels(s.Labels)
			samples = append(samples, s)
		})
	}
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].key() < samples[j].key() })
	return samples
}

// Map flattens a snapshot into "name{labels}" → value: counters and
// gauges map to their reading, histograms to _count and _sum entries.
// The flat form is what STATS-style dumps and benchmark reports embed.
func (r *Registry) Map() map[string]float64 {
	samples := r.Gather()
	if samples == nil {
		return nil
	}
	m := make(map[string]float64, len(samples))
	for _, s := range samples {
		name := s.Name
		if ls := renderLabels(s.Labels); ls != "" {
			name += "{" + ls + "}"
		}
		if s.Kind == KindHistogram {
			m[name+"_count"] = float64(s.Count)
			m[name+"_sum"] = s.Sum
			continue
		}
		m[name] = s.Value
	}
	return m
}

// SanitizeName maps an arbitrary string onto the Prometheus metric-name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*, replacing every invalid rune with
// '_'. Idempotent; cheap for already-valid names.
func SanitizeName(name string) string {
	if name == "" {
		return "_"
	}
	valid := func(i int, r rune) bool {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_' || r == ':' {
			return true
		}
		return i > 0 && r >= '0' && r <= '9'
	}
	ok := true
	for i, r := range name {
		if !valid(i, r) {
			ok = false
			break
		}
	}
	if ok {
		return name
	}
	var sb strings.Builder
	sb.Grow(len(name))
	for i, r := range name {
		if valid(i, r) {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// SanitizeLabelName maps an arbitrary string onto the Prometheus label-name
// charset [a-zA-Z_][a-zA-Z0-9_]* — like SanitizeName but without ':', which
// is legal in metric names only. Replaces every invalid rune with '_'.
func SanitizeLabelName(name string) string {
	return strings.ReplaceAll(SanitizeName(name), ":", "_")
}

// renderLabels serializes labels as k1="v1",k2="v2" with keys sorted and
// values escaped; "" for empty. Used for interning keys and exposition.
func renderLabels(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(SanitizeLabelName(k))
		sb.WriteString(`="`)
		sb.WriteString(EscapeLabelValue(l[k]))
		sb.WriteByte('"')
	}
	return sb.String()
}

// EscapeLabelValue escapes a label value for the Prometheus text format:
// backslash, double quote, and newline become \\, \", and \n.
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	sb.Grow(len(v) + 8)
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

func copyLabels(l Labels) Labels {
	if len(l) == 0 {
		return nil
	}
	c := make(Labels, len(l))
	for k, v := range l {
		c[k] = v
	}
	return c
}
