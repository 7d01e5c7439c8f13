package server

import (
	"net/http"
	"time"

	spex "repro"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/setcompile"
)

// DebugInfo is the GET /debug/spex response: the daemon's live internals in
// one JSON document — what an operator needs when a stream is slow or a
// queue is backing up, without attaching a profiler. Everything here reads
// atomics or short-lived locks; polling it is safe while sessions stream.
type DebugInfo struct {
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision"`
	UptimeNs  int64  `json:"uptime_ns"`
	Draining  bool   `json:"draining"`

	// Engine-registry highlights (full detail stays on /vars and /metrics).
	SymtabSize int64  `json:"symtab_size"`
	LiveVars   int64  `json:"live_vars"`
	HeapAlloc  uint64 `json:"heap_alloc_bytes"`

	Sessions      []DebugSession   `json:"sessions"`
	Channels      []DebugChannel   `json:"channels"`
	Governor      []DebugResource  `json:"governor,omitempty"`
	SlowStreams   []obs.SlowStream `json:"slow_streams"`
	SlowTotal     int64            `json:"slow_total"`
	SlowThreshold int64            `json:"slow_threshold_ns"`
}

// DebugSession is one in-flight ingest session.
type DebugSession struct {
	ID            string `json:"id"`
	Channel       string `json:"channel"`
	Trace         string `json:"trace"`
	Subscriptions int    `json:"subscriptions"`
	AgeNs         int64  `json:"age_ns"`
	Bytes         int64  `json:"bytes"`
}

// DebugChannel is one channel with its subscriptions' queue state.
type DebugChannel struct {
	Name          string     `json:"name"`
	Engine        string     `json:"engine"`
	Subscriptions []DebugSub `json:"subscriptions"`
	// Merged is the query-set compiler's current plan for the channel's
	// whole subscription set. A sharded channel compiles each shard's
	// partition separately, so there it is the plan the set would have
	// inline — what the corpus shares, not what each shard built.
	Merged *DebugMerged `json:"merged,omitempty"`
}

// DebugMerged is a channel's compiled set plan: how far the static
// pre-pass shrank the subscription corpus, which queries it pruned or found
// contained, and the naive-versus-merged transducer counts.
type DebugMerged struct {
	Queries           int      `json:"queries"`
	Live              int      `json:"live"`
	Pruned            int      `json:"pruned"`
	Collapsed         int      `json:"collapsed"`
	NaiveTransducers  int      `json:"naive_transducers"`
	MergedTransducers int      `json:"merged_transducers"`
	PrunedQueries     []string `json:"pruned_queries,omitempty"`
	// Containments lists one-way containments (Query's answers are a subset
	// of Container's); mutually contained — equivalent — pairs collapse and
	// are counted above instead.
	Containments []DebugContainment `json:"containments,omitempty"`
}

// DebugContainment names one contained-query pair by subscription id.
type DebugContainment struct {
	Query     string `json:"query"`
	Container string `json:"container"`
}

// DebugSub is one subscription's result-queue state: current depth, the
// high watermark since registration, and the configured capacity — how close
// the backpressure point has come to engaging.
type DebugSub struct {
	ID            string `json:"id"`
	Query         string `json:"query"`
	Hits          int64  `json:"hits"`
	QueueDepth    int64  `json:"queue_depth"`
	QueueMax      int64  `json:"queue_max"`
	QueueCapacity int    `json:"queue_capacity"`
}

// DebugResource is one governed resource's headroom: the engine registry's
// current reading against the configured cap. Current is -1 when the
// registry has no live reading for the resource (per-event step messages —
// transducer visits, activations delivered, determinations applied — are not
// tracked cross-run).
type DebugResource struct {
	Resource string `json:"resource"`
	Current  int64  `json:"current"`
	Limit    int    `json:"limit"`
}

// recordSlow adds a finished ingest to the slow-stream ring when it ran
// longer than the configured threshold or failed. With a zero threshold
// nothing is recorded.
func (s *Server) recordSlow(sess *session, bytes, matches int64, err error) {
	if s.slowOver <= 0 {
		return
	}
	elapsed := time.Since(sess.start)
	if elapsed < s.slowOver && err == nil {
		return
	}
	rec := obs.SlowStream{
		Trace:     sess.trace,
		Label:     sess.ch.name + "/" + sess.id,
		Bytes:     bytes,
		Matches:   matches,
		ElapsedNs: elapsed.Nanoseconds(),
		UnixNano:  time.Now().UnixNano(),
	}
	if err != nil {
		rec.Err = err.Error()
	}
	s.slow.Add(rec)
}

// handleDebug serves GET /debug/spex.
func (s *Server) handleDebug(w http.ResponseWriter, r *http.Request) {
	snap := s.engineMetrics.Snapshot()
	goVersion, revision := obs.BuildInfo()
	info := DebugInfo{
		GoVersion:     goVersion,
		Revision:      revision,
		UptimeNs:      time.Since(s.start).Nanoseconds(),
		Draining:      s.draining.Load(),
		SymtabSize:    snap.SymtabSize,
		LiveVars:      snap.LiveVars,
		HeapAlloc:     snap.HeapAlloc,
		Sessions:      []DebugSession{},
		Channels:      []DebugChannel{},
		SlowStreams:   s.slow.Entries(),
		SlowTotal:     s.slow.Total(),
		SlowThreshold: s.slowOver.Nanoseconds(),
	}
	if info.SlowStreams == nil {
		info.SlowStreams = []obs.SlowStream{}
	}

	for _, sess := range s.mgr.activeSessions() {
		ds := DebugSession{
			ID:            sess.id,
			Channel:       sess.ch.name,
			Trace:         sess.trace,
			Subscriptions: len(sess.subs),
			AgeNs:         time.Since(sess.start).Nanoseconds(),
		}
		if sess.bytes != nil {
			ds.Bytes = sess.bytes.Load()
		}
		info.Sessions = append(info.Sessions, ds)
	}

	s.mgr.mu.RLock()
	channels := make([]*channel, 0, len(s.mgr.channels))
	for _, ch := range s.mgr.channels {
		channels = append(channels, ch)
	}
	s.mgr.mu.RUnlock()
	for _, ch := range channels {
		dc := DebugChannel{Name: ch.name, Engine: ch.engine.String(), Subscriptions: []DebugSub{}}
		for _, sub := range ch.snapshot() {
			dc.Subscriptions = append(dc.Subscriptions, DebugSub{
				ID:            sub.id,
				Query:         sub.query,
				Hits:          sub.hits.Load(),
				QueueDepth:    int64(len(sub.queue.ch)),
				QueueMax:      sub.queue.depth.Max(),
				QueueCapacity: cap(sub.queue.ch),
			})
		}
		dc.Merged = debugMerged(ch.comp.Program())
		info.Channels = append(info.Channels, dc)
	}
	sortDebugChannels(info.Channels)

	if !s.limits.Governor.Zero() {
		info.Governor = governorHeadroom(s.limits.Governor, snap)
	}
	s.writeJSON(w, http.StatusOK, info)
}

// debugMerged projects a compiled set plan onto the debug surface.
func debugMerged(p *setcompile.Program) *DebugMerged {
	dm := &DebugMerged{
		Queries:           p.Stats.Queries,
		Live:              p.Stats.Live,
		Pruned:            p.Stats.Pruned,
		Collapsed:         p.Stats.Collapsed,
		NaiveTransducers:  p.Stats.NaiveTransducers,
		MergedTransducers: p.Stats.MergedTransducers,
	}
	for _, m := range p.Members {
		if m.Status == setcompile.StatusPruned {
			dm.PrunedQueries = append(dm.PrunedQueries, m.Name)
		}
	}
	for _, c := range p.Containments {
		dm.Containments = append(dm.Containments, DebugContainment{Query: c.Query, Container: c.Container})
	}
	return dm
}

func sortDebugChannels(chs []DebugChannel) {
	for i := 1; i < len(chs); i++ {
		for j := i; j > 0 && chs[j].Name < chs[j-1].Name; j-- {
			chs[j], chs[j-1] = chs[j-1], chs[j]
		}
	}
}

// governorHeadroom pairs each configured cap with the engine registry's
// current reading of that resource.
func governorHeadroom(l spex.ResourceLimits, snap obs.Snapshot) []DebugResource {
	current := func(r governor.Resource) int64 {
		switch r {
		case governor.ResFormula:
			return snap.MaxFormula
		case governor.ResCandidates:
			return snap.Queued
		case governor.ResBuffered:
			return snap.Buffered
		case governor.ResLiveVars:
			return snap.LiveVars
		case governor.ResDepth:
			return snap.Depth
		default:
			// Per-event step messages have no cross-run live reading.
			return -1
		}
	}
	var out []DebugResource
	for i := 0; i < governor.NumResources; i++ {
		r := governor.Resource(i)
		if lim := l.Of(r); lim > 0 {
			out = append(out, DebugResource{Resource: r.String(), Current: current(r), Limit: lim})
		}
	}
	return out
}
