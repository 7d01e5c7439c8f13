package obs

import (
	"runtime"
	"time"

	"repro/internal/governor"
)

// Snapshot is a point-in-time view of a Metrics registry plus a heap
// sample. It is safe to take from any goroutine while the evaluation
// goroutine is streaming: every instrument is read atomically. Stream
// counters (events, elements) update on every document event; gauges, the
// output-side counters and the per-transducer message counts are published
// on a short stride, so they can lag by a few events — never by more, and
// the end-of-run sync makes the final snapshot exact.
type Snapshot struct {
	// Enabled is false when no registry was attached to the evaluation (the
	// uninstrumented fast path); all other fields are then zero.
	Enabled bool `json:"enabled"`
	// Uptime is the registry's age — for a per-run registry, the run time.
	Uptime time.Duration `json:"uptime_ns"`

	Events       int64   `json:"events"`
	Elements     int64   `json:"elements"`
	Bytes        int64   `json:"bytes"`
	EventsPerSec float64 `json:"events_per_sec"`
	Depth        int64   `json:"depth"`
	MaxDepth     int64   `json:"max_depth"`

	Matches     int64 `json:"matches"`
	Candidates  int64 `json:"candidates"`
	Dropped     int64 `json:"dropped"`
	Queued      int64 `json:"queued"`
	MaxQueued   int64 `json:"max_queued"`
	Buffered    int64 `json:"buffered_events"`
	MaxBuffered int64 `json:"max_buffered_events"`
	// EarlyTerms counts sinks whose answer became fixed before end of
	// stream (answer limits reached; earliest query answering).
	EarlyTerms int64 `json:"early_terminations"`

	// Ingest-path accounting of the most recent completed scan: arena tape
	// bytes/blocks/attr slots, scan buffer size, and the chunk count (1 for
	// a serial scan, the worker chunk count for a parallel chunk-scan).
	IngestArenaBytes  int64 `json:"ingest_arena_bytes"`
	IngestArenaBlocks int64 `json:"ingest_arena_blocks"`
	IngestArenaAttrs  int64 `json:"ingest_arena_attrs"`
	IngestBufferBytes int64 `json:"ingest_buffer_bytes"`
	IngestChunks      int64 `json:"ingest_chunks"`

	// Symbol-table instruments: interner size and cumulative lookup
	// hit/miss counts (cumulative for the table, which may outlive the run).
	SymtabSize   int64 `json:"symtab_size"`
	SymtabHits   int64 `json:"symtab_hits"`
	SymtabMisses int64 `json:"symtab_misses"`

	// MaxStack and MaxFormula are the maxima over all transducers: the
	// quantities Lemma V.2 bounds by the depth d and the formula size o(φ).
	MaxStack   int64 `json:"max_stack"`
	MaxFormula int64 `json:"max_formula"`

	// StepMessages summarizes the deliveries-per-event distribution (see
	// Metrics.StepMessages).
	StepMessages HistogramSnapshot `json:"step_messages"`

	// Candidate-lifecycle distributions: events from candidate creation to
	// condition resolution (DecisionLatency) and to the candidate leaving
	// the sink (CandidateLifetime), plus wall-clock nanoseconds from the
	// last input read to answer emission (StreamLatency).
	DecisionLatency   HistogramSnapshot `json:"decision_latency"`
	CandidateLifetime HistogramSnapshot `json:"candidate_lifetime"`
	StreamLatency     HistogramSnapshot `json:"stream_latency_ns"`

	// LiveVars is the number of live condition variables in the pool.
	LiveVars int64 `json:"live_vars"`

	// Trace-ring accounting, when a RingTracer is associated with the
	// registry (SetTracerRing): events ever traced and events the ring has
	// evicted. Overruns are reported here instead of being silent.
	TraceTotal   int64 `json:"trace_total,omitempty"`
	TraceDropped int64 `json:"trace_dropped,omitempty"`

	// Resource-governor outcome: limit trips by resource and the actions
	// applied. All zero/empty when no governor was configured.
	GovernorTrips    []GovernorTripSnapshot `json:"governor_trips,omitempty"`
	GovernorFails    int64                  `json:"governor_fails"`
	GovernorDegrades int64                  `json:"governor_degrades"`
	GovernorSheds    int64                  `json:"governor_sheds"`

	// Query-set compiler (merged engine) pre-pass results: transducer
	// counts with and without merging, and the per-query static verdicts.
	SetcompileNaive     int64 `json:"setcompile_naive_transducers"`
	SetcompileMerged    int64 `json:"setcompile_merged_transducers"`
	SetcompilePruned    int64 `json:"setcompile_pruned_queries"`
	SetcompileCollapsed int64 `json:"setcompile_collapsed_queries"`
	SetcompileContained int64 `json:"setcompile_contained_queries"`

	Transducers []TransducerSnapshot `json:"transducers,omitempty"`

	// Shards holds the per-shard instruments of a parallel multi-query
	// (SDI) worker pool, when one is bound to the registry.
	Shards []ShardSnapshot `json:"shards,omitempty"`

	// Heap sample via runtime.ReadMemStats — the §VI memory observation.
	HeapAlloc  uint64 `json:"heap_alloc_bytes"`
	HeapSys    uint64 `json:"heap_sys_bytes"`
	TotalAlloc uint64 `json:"total_alloc_bytes"`
	NumGC      uint32 `json:"num_gc"`
}

// HistogramSnapshot is a histogram's state at snapshot time.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// snapshotHistogram captures one histogram. The count is read before the
// buckets, so a concurrent Observe can make the buckets sum slightly ahead
// of the count — never behind, and exact once the writer is done.
func snapshotHistogram(h *Histogram) HistogramSnapshot {
	return HistogramSnapshot{Count: h.Count(), Sum: h.Sum(), Buckets: h.Buckets()}
}

// TransducerSnapshot is one transducer's instruments at snapshot time. The
// counts are deliveries: InDoc is the document events delivered to the
// transducer (its visits — a transducer is visited only for an activation or
// an event it asked for), InAct/OutAct the activation messages it received
// and emitted, OutDet the determinations it originated, and InDet — output
// transducers only — the resolutions that touched one of the sink's
// candidates (determinations go to the network's condition store, not through
// the transducers). OutDegree is the number of destinations of its output
// port: the fan-out of a shared subexpression shows here, on the writer.
type TransducerSnapshot struct {
	Name       string `json:"name"`
	OutDegree  int64  `json:"out_degree"`
	InDoc      int64  `json:"in_doc"`
	InAct      int64  `json:"in_act"`
	InDet      int64  `json:"in_det"`
	OutAct     int64  `json:"out_act"`
	OutDet     int64  `json:"out_det"`
	Stack      int64  `json:"stack"`
	MaxStack   int64  `json:"max_stack"`
	MaxFormula int64  `json:"max_formula"`
}

// GovernorTripSnapshot is the trip count of one governed resource at
// snapshot time; only resources with at least one trip are reported.
type GovernorTripSnapshot struct {
	Resource string `json:"resource"`
	Trips    int64  `json:"trips"`
}

// ShardSnapshot is one SDI shard's instruments at snapshot time.
type ShardSnapshot struct {
	Name     string `json:"name"`
	Subs     int64  `json:"subs"`
	Batches  int64  `json:"batches"`
	Events   int64  `json:"events"`
	Hits     int64  `json:"hits"`
	Queue    int64  `json:"queue"`
	MaxQueue int64  `json:"max_queue"`
	BusyNs   int64  `json:"busy_ns"`
}

// Snapshot captures the registry. The heap sample calls
// runtime.ReadMemStats, so polling at human frequencies (not per event) is
// the intended use.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Enabled:     true,
		Uptime:      m.Uptime(),
		Events:      m.Events.Load(),
		Elements:    m.Elements.Load(),
		Bytes:       m.Bytes.Load(),
		Depth:       m.Depth.Cur(),
		MaxDepth:    m.Depth.Max(),
		Matches:     m.Matches.Load(),
		Candidates:  m.Candidates.Load(),
		Dropped:     m.Dropped.Load(),
		Queued:      m.Queued.Cur(),
		MaxQueued:   m.Queued.Max(),
		Buffered:    m.Buffered.Cur(),
		MaxBuffered: m.Buffered.Max(),
		EarlyTerms:  m.EarlyTerm.Load(),

		IngestArenaBytes:  m.IngestArenaBytes.Load(),
		IngestArenaBlocks: m.IngestArenaBlocks.Load(),
		IngestArenaAttrs:  m.IngestArenaAttrs.Load(),
		IngestBufferBytes: m.IngestBufferBytes.Load(),
		IngestChunks:      m.IngestChunks.Load(),

		SymtabSize:        m.SymtabSize.Load(),
		SymtabHits:        m.SymtabHits.Load(),
		SymtabMisses:      m.SymtabMisses.Load(),
		StepMessages:      snapshotHistogram(&m.StepMessages),
		DecisionLatency:   snapshotHistogram(&m.DecisionLatency),
		CandidateLifetime: snapshotHistogram(&m.CandidateLifetime),
		StreamLatency:     snapshotHistogram(&m.StreamLatencyNs),
		LiveVars:          m.LiveVars.Load(),
		GovernorFails:     m.GovernorFails.Load(),
		GovernorDegrades:  m.GovernorDegrades.Load(),
		GovernorSheds:     m.GovernorSheds.Load(),

		SetcompileNaive:     m.SetcompileNaive.Load(),
		SetcompileMerged:    m.SetcompileMerged.Load(),
		SetcompilePruned:    m.SetcompilePruned.Load(),
		SetcompileCollapsed: m.SetcompileCollapsed.Load(),
		SetcompileContained: m.SetcompileContained.Load(),
	}
	if ring := m.TracerRing(); ring != nil {
		s.TraceTotal = ring.Total()
		s.TraceDropped = ring.Dropped()
	}
	for i := range m.GovernorTrips {
		if n := m.GovernorTrips[i].Load(); n > 0 {
			s.GovernorTrips = append(s.GovernorTrips, GovernorTripSnapshot{
				Resource: governor.Resource(i).String(),
				Trips:    n,
			})
		}
	}
	if secs := s.Uptime.Seconds(); secs > 0 {
		s.EventsPerSec = float64(s.Events) / secs
	}
	for _, tm := range m.Transducers() {
		ts := TransducerSnapshot{
			Name:       tm.Name,
			OutDegree:  tm.OutDegree,
			InDoc:      tm.In[KindDoc].Load(),
			InAct:      tm.In[KindActivation].Load(),
			InDet:      tm.In[KindDetermination].Load(),
			OutAct:     tm.Out[KindActivation].Load(),
			OutDet:     tm.Out[KindDetermination].Load(),
			Stack:      tm.Stack.Cur(),
			MaxStack:   tm.Stack.Max(),
			MaxFormula: tm.Formula.Max(),
		}
		if ts.MaxStack > s.MaxStack {
			s.MaxStack = ts.MaxStack
		}
		if ts.MaxFormula > s.MaxFormula {
			s.MaxFormula = ts.MaxFormula
		}
		s.Transducers = append(s.Transducers, ts)
	}
	for _, sm := range m.Shards() {
		s.Shards = append(s.Shards, ShardSnapshot{
			Name:     sm.Name,
			Subs:     sm.Subs.Load(),
			Batches:  sm.Batches.Load(),
			Events:   sm.Events.Load(),
			Hits:     sm.Hits.Load(),
			Queue:    sm.Queue.Cur(),
			MaxQueue: sm.Queue.Max(),
			BusyNs:   sm.BusyNs.Load(),
		})
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.HeapAlloc = ms.HeapAlloc
	s.HeapSys = ms.HeapSys
	s.TotalAlloc = ms.TotalAlloc
	s.NumGC = ms.NumGC
	return s
}
