// Package obs is the observability subsystem of the SPEX engine: lock-cheap
// live metrics, structured transition tracing, and point-in-time snapshots
// that can be polled from another goroutine while a stream is flowing.
//
// The paper's evaluation (§V–§VI) is entirely about observable resource
// behaviour — stack entries bounded by the document depth d, condition
// formulas bounded by o(φ), constant memory on arbitrarily long streams,
// progressive answer emission. This package surfaces those quantities while
// an evaluation runs instead of only summarizing them afterwards:
//
//   - a Metrics registry of atomic counters, gauges, watermarks and bounded
//     histograms, with one TransducerMetrics instrument per network node
//     (messages in/out by kind, current and maximum stack depth, maximum
//     condition-formula size);
//   - Snapshot, a consistent view of the registry plus a heap sample, safe
//     to take from any goroutine mid-stream;
//   - Tracer, the first-class form of the transition traces the paper walks
//     through in Figs. 4, 5 and 13, with kind and transducer filters and a
//     fixed-size ring buffer;
//   - HTTP handlers serving the registry as Prometheus text and JSON.
//
// All instruments are single-writer (the evaluation goroutine) and
// many-reader. When no registry is attached to a network the engine takes a
// separate uninstrumented path, so observability costs nothing unless asked
// for.
package obs

import (
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/governor"
)

// MsgKind classifies transducer messages for the per-kind instruments; the
// values mirror the engine's message kinds (Definition 2 of the paper).
type MsgKind uint8

const (
	// KindDoc is a document message (element/document boundary or text).
	KindDoc MsgKind = iota
	// KindActivation is an activation message [f].
	KindActivation
	// KindDetermination is a condition determination message {c,·}.
	KindDetermination
	numKinds
)

// String returns the short label used in metric output.
func (k MsgKind) String() string {
	switch k {
	case KindDoc:
		return "doc"
	case KindActivation:
		return "act"
	case KindDetermination:
		return "det"
	default:
		return "?"
	}
}

// Counter is a monotone atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores the current value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by delta — for values maintained as up/down counts
// from several goroutines (active sessions, in-flight bytes), where Set
// would lose concurrent updates.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Watermark tracks a current value and the maximum it ever reached. It is
// single-writer: only the evaluation goroutine calls Set/NoteMax, so the
// max update needs no compare-and-swap loop.
type Watermark struct{ cur, max atomic.Int64 }

// Set stores the current value, raising the maximum if exceeded. The
// maximum is raised first, so a reader that loads Cur and then Max (as
// Snapshot does) never sees a current value above the maximum.
func (w *Watermark) Set(n int64) {
	if n > w.max.Load() {
		w.max.Store(n)
	}
	w.cur.Store(n)
}

// NoteMax raises the maximum without touching the current value — used when
// a within-step peak is reported after the fact.
func (w *Watermark) NoteMax(n int64) {
	if n > w.max.Load() {
		w.max.Store(n)
	}
}

// Cur returns the current value.
func (w *Watermark) Cur() int64 { return w.cur.Load() }

// Max returns the maximum value observed.
func (w *Watermark) Max() int64 { return w.max.Load() }

// histBuckets is the fixed number of power-of-two histogram buckets; the
// last bucket absorbs everything ≥ 2^(histBuckets-2). The nanosecond
// histograms (frame flush, stream latency) read hundreds of microseconds on a
// live server, so the interior has to reach past that: 32 buckets resolve up
// to 2^30 ns ≈ 1.07 s.
const histBuckets = 32

// Histogram is a bounded histogram over non-negative values with
// power-of-two buckets: bucket 0 counts zeros, bucket i (i ≥ 1) counts
// values in [2^(i-1), 2^i). Memory is constant regardless of the value
// range, as every structure of this engine must be.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// HistogramBatch accumulates observations in plain ints owned by a single
// goroutine; FlushTo publishes them into an atomic Histogram in one pass.
// Hot loops that would otherwise pay three atomic adds per observation
// observe into a batch and flush on a stride.
type HistogramBatch struct {
	buckets [histBuckets]int64
	count   int64
	sum     int64
}

// Observe records one value into the batch.
func (b *HistogramBatch) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	b.buckets[i]++
	b.count++
	b.sum += v
}

// FlushTo adds the batch's accumulated observations to h and resets the
// batch. A flushed batch is immediately reusable.
func (b *HistogramBatch) FlushTo(h *Histogram) {
	if b.count == 0 {
		return
	}
	for i := range b.buckets {
		if n := b.buckets[i]; n != 0 {
			h.buckets[i].Add(n)
			b.buckets[i] = 0
		}
	}
	h.count.Add(b.count)
	h.sum.Add(b.sum)
	b.count, b.sum = 0, 0
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// HistogramBucket is one bucket of a histogram snapshot.
type HistogramBucket struct {
	// Le is the bucket's inclusive upper bound (Prometheus "le" semantics);
	// the last bucket's bound is reported as math.MaxInt64.
	Le int64 `json:"le"`
	// Count is the number of observations ≤ Le (cumulative).
	Count int64 `json:"count"`
}

// Buckets returns the cumulative bucket counts, smallest bound first.
func (h *Histogram) Buckets() []HistogramBucket {
	out := make([]HistogramBucket, 0, histBuckets)
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		le := int64(1)<<uint(i) - 1
		if i == histBuckets-1 {
			le = int64(1)<<62 - 1
		}
		out = append(out, HistogramBucket{Le: le, Count: cum})
	}
	return out
}

// TransducerMetrics is the per-transducer instrument set: message counts by
// direction and kind, the depth/condition stack watermark (the paper's
// bound d, Lemma V.2), and the condition-formula size watermark (the bound
// o(φ)).
type TransducerMetrics struct {
	// Name labels the transducer as "index:name", e.g. "3:CH(a)"; the index
	// disambiguates repeated constructs in one network.
	Name string
	// OutDegree is the number of destinations of the transducer's output
	// port, fixed at build time: more than one where Fig. 11 has a split or
	// where a shared subexpression feeds several consumers.
	OutDegree int64
	// In and Out count deliveries by MsgKind. In: visits (doc), activations
	// received, resolutions touching a sink's candidates (det, output
	// transducers only). Out: activations emitted and determinations
	// originated; Out[KindDoc] is never written — nothing re-emits the event.
	In  [numKinds]Counter
	Out [numKinds]Counter
	// Stack is the current and maximum depth/condition stack size.
	Stack Watermark
	// Formula is the maximum condition-formula size handled.
	Formula Watermark
}

// NewTransducerMetrics returns an instrument set labelled name.
func NewTransducerMetrics(name string) *TransducerMetrics {
	return &TransducerMetrics{Name: name}
}

// ShardMetrics is the per-shard instrument set of the parallel multi-query
// (SDI) engine: each shard of the worker pool owns one and is its only
// writer, except Queue, which the feeding goroutine writes when it enqueues
// a batch. All instruments are atomics, so snapshots from other goroutines
// are safe while the pool is running.
type ShardMetrics struct {
	// Name labels the shard, e.g. "shard-3".
	Name string
	// Subs is the number of subscriptions assigned to the shard.
	Subs Gauge
	// Batches counts event batches the shard has evaluated.
	Batches Counter
	// Events counts stream events the shard has evaluated (each shard sees
	// every event of the stream — the queries are partitioned, not the
	// stream).
	Events Counter
	// Hits counts answers the shard has produced across its subscriptions.
	Hits Counter
	// Queue is the shard's inbound queue depth in batches, with watermark:
	// a persistently full queue marks the shard as the pool's straggler.
	Queue Watermark
	// BusyNs accumulates time spent evaluating batches, in nanoseconds;
	// busy time over wall time is the shard's utilization.
	BusyNs Counter
}

// NewShardMetrics returns an instrument set labelled name.
func NewShardMetrics(name string) *ShardMetrics {
	return &ShardMetrics{Name: name}
}

// Metrics is the engine's metrics registry. One registry can outlive any
// single evaluation — a service evaluating many streams binds each new
// network to the same registry, counters accumulate, and the HTTP handlers
// keep serving — or it can be private to one Run for mid-stream polling.
//
// All numeric instruments are atomics written by the evaluation goroutine
// and readable from anywhere; the transducer instrument list is guarded by
// a mutex because binding a network replaces it.
type Metrics struct {
	start time.Time

	// Stream-side instruments.
	Events   Counter   // document-stream events processed
	Elements Counter   // element start messages
	Bytes    Counter   // input bytes consumed (reader-fed evaluations)
	Depth    Watermark // current and maximum document depth d

	// Sink-side instruments (§III.8, Lemma V.2(5)).
	Matches    Counter   // answers flushed to the sink
	Candidates Counter   // candidates proposed
	Dropped    Counter   // candidates whose condition became false
	Queued     Watermark // candidates awaiting determination or order
	Buffered   Watermark // buffered content events
	// EarlyTerm counts sinks whose answer became fixed before the end of
	// the stream (answer limit reached): each increment is one query that
	// released its candidate state early and let its stream disconnect.
	EarlyTerm Counter

	// Candidate-lifecycle histograms (sink-side). DecisionLatency is the
	// number of stream events between a candidate's creation and the moment
	// its condition resolved to true or false — the paper's delay-to-decision;
	// CandidateLifetime is the number of events between creation and the
	// candidate leaving the sink (emitted or discarded), i.e. how long its
	// buffered content aged. Both are in events, the unit §V's bounds are
	// stated in.
	DecisionLatency   Histogram
	CandidateLifetime Histogram

	// StreamLatencyNs is the end-to-end stream latency: wall-clock
	// nanoseconds between the most recent read of the input (LastReadNs,
	// stamped by CountingReader) and an answer's emission at the OU sink.
	StreamLatencyNs Histogram

	// LastReadNs is the wall-clock timestamp (UnixNano) of the most recent
	// input read — the reference point StreamLatencyNs measures from. Zero
	// until a counting reader is attached.
	LastReadNs Gauge

	// LiveVars is the number of live condition variables in the network's
	// pool, published on the gauge stride — the current value behind the
	// governor's live_vars cap.
	LiveVars Gauge

	// Ingest-path instruments (internal/xmlstream): the arena tape and scan
	// buffer of the zero-copy scanner that fed the last completed scan, and
	// the chunk count of a parallel chunk-scan (1 for a serial scan). Set
	// once per finished scan by whoever owns the scanner (core evaluations,
	// the query-set engines, spexd sessions), so a scrape mid-service shows
	// the most recent stream's ingest footprint — the quantities behind the
	// E22 ablation.
	IngestArenaBytes  Gauge
	IngestArenaBlocks Gauge
	IngestArenaAttrs  Gauge
	IngestBufferBytes Gauge
	IngestChunks      Gauge

	// Symbol-interning instruments: size and cumulative hit/miss counts of
	// the symbol table the observed evaluation resolves labels against.
	// Tables may be shared across evaluations (a multi-query engine, a
	// long-lived plan), so the values are cumulative for the table, not the
	// run.
	SymtabSize   Gauge
	SymtabHits   Gauge
	SymtabMisses Gauge

	// StepMessages is the distribution of deliveries made per document
	// event: one per transducer visited (only for an activation or an event
	// it asked for), one per activation message delivered, one per
	// determination applied by the condition store — the per-event work the
	// Lemma V.2 time bound is about, and the figure to read for "how much of
	// the network does an event wake".
	StepMessages Histogram

	// Resource-governor instruments: per-resource limit trips and the
	// actions taken. Written by the evaluation goroutine when a configured
	// cap trips (internal/governor); all zero when no governor is attached.
	GovernorTrips    [governor.NumResources]Counter // trips by Resource
	GovernorFails    Counter                        // runs terminated (PolicyFail)
	GovernorDegrades Counter                        // sinks switched to count-only (PolicyDegrade)
	GovernorSheds    Counter                        // subscriptions dropped (PolicyShed)

	// Query-set compiler instruments (internal/setcompile): the size of
	// the registered subscription set's merged compilation against the
	// naive one-network-per-query baseline, and the static pre-pass
	// outcomes. Set absolutely by a merged engine at build time, or
	// aggregated across channels by spexd's subscription lifecycle.
	SetcompileNaive     Gauge // transducers if each query compiled alone
	SetcompileMerged    Gauge // transducers in the merged network
	SetcompilePruned    Gauge // queries statically unsatisfiable, dropped
	SetcompileCollapsed Gauge // queries collapsed onto an equivalent's sink
	SetcompileContained Gauge // one-way containments detected between live queries

	mu          sync.RWMutex
	transducers []*TransducerMetrics
	shards      []*ShardMetrics
	ring        *RingTracer
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now()}
}

// SetTransducers installs the per-transducer instruments of the network the
// registry is currently observing, replacing those of a previous network.
func (m *Metrics) SetTransducers(tms []*TransducerMetrics) {
	m.mu.Lock()
	m.transducers = tms
	m.mu.Unlock()
}

// Transducers returns the current per-transducer instruments.
func (m *Metrics) Transducers() []*TransducerMetrics {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*TransducerMetrics, len(m.transducers))
	copy(out, m.transducers)
	return out
}

// SetSetcompile publishes the query-set compiler's merge statistics for
// the subscription set the registry is currently observing: naive vs
// merged transducer counts and the pruned/collapsed/contained query
// tallies of the static pre-pass.
func (m *Metrics) SetSetcompile(naive, merged, pruned, collapsed, contained int) {
	m.SetcompileNaive.Set(int64(naive))
	m.SetcompileMerged.Set(int64(merged))
	m.SetcompilePruned.Set(int64(pruned))
	m.SetcompileCollapsed.Set(int64(collapsed))
	m.SetcompileContained.Set(int64(contained))
}

// SetIngest publishes the ingest accounting of a finished scan: arena bytes,
// blocks and attribute slots carved from the scanner's arenas, the scan
// buffer size, and the chunk count (1 for a serial scan, the worker chunk
// count for a parallel chunk-scan). Plain integers rather than the
// xmlstream.IngestStats struct, so the observability package stays free of
// scanner imports. Safe on a nil receiver (uninstrumented run).
func (m *Metrics) SetIngest(arenaBytes, arenaBlocks, arenaAttrs, bufferBytes, chunks int64) {
	if m == nil {
		return
	}
	m.IngestArenaBytes.Set(arenaBytes)
	m.IngestArenaBlocks.Set(arenaBlocks)
	m.IngestArenaAttrs.Set(arenaAttrs)
	m.IngestBufferBytes.Set(bufferBytes)
	m.IngestChunks.Set(chunks)
}

// SetShards installs the per-shard instruments of the worker pool the
// registry is currently observing, replacing those of a previous pool.
func (m *Metrics) SetShards(sms []*ShardMetrics) {
	m.mu.Lock()
	m.shards = sms
	m.mu.Unlock()
}

// Shards returns the current per-shard instruments.
func (m *Metrics) Shards() []*ShardMetrics {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*ShardMetrics, len(m.shards))
	copy(out, m.shards)
	return out
}

// SetTracerRing associates a ring tracer with the registry so snapshots
// report how many trace events were recorded and how many the ring has
// already evicted (RingTracer.Dropped) — overruns stop being silent.
func (m *Metrics) SetTracerRing(r *RingTracer) {
	m.mu.Lock()
	m.ring = r
	m.mu.Unlock()
}

// TracerRing returns the associated ring tracer, if any.
func (m *Metrics) TracerRing() *RingTracer {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ring
}

// Uptime returns the time since the registry was created.
func (m *Metrics) Uptime() time.Duration { return time.Since(m.start) }

// NoteGovernor records one tripped resource limit and the policy that was
// applied for it. Safe to call with a nil receiver (uninstrumented run).
func (m *Metrics) NoteGovernor(r governor.Resource, p governor.Policy) {
	if m == nil {
		return
	}
	if int(r) >= 0 && int(r) < governor.NumResources {
		m.GovernorTrips[r].Inc()
	}
	switch p {
	case governor.PolicyFail:
		m.GovernorFails.Inc()
	case governor.PolicyDegrade:
		m.GovernorDegrades.Inc()
	case governor.PolicyShed:
		m.GovernorSheds.Inc()
	}
}

// CountingReader counts the bytes read through it into a Counter, so the
// registry's Bytes instrument reflects input consumed. With LastReadNs set
// it also stamps the wall-clock time of each read, giving StreamLatencyNs
// its reference point.
type CountingReader struct {
	R          io.Reader
	C          *Counter
	LastReadNs *Gauge
}

// Read implements io.Reader.
func (r *CountingReader) Read(p []byte) (int, error) {
	n, err := r.R.Read(p)
	if n > 0 {
		r.C.Add(int64(n))
		if r.LastReadNs != nil {
			r.LastReadNs.Set(time.Now().UnixNano())
		}
	}
	return n, err
}
