package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
)

// WriteJSON renders a snapshot as indented JSON (expvar-style).
func WriteJSON(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// PromSection accumulates Prometheus text-format metric families and writes
// them sorted by family name, samples in insertion order within a family —
// a deterministic exposition a golden test can compare byte for byte.
// Metric names are the full exported names ("spex_events_total"). Subsystems
// that render their own section next to this package's (the query server)
// build one too, so the whole scrape stays ordered.
type PromSection struct {
	families map[string]*promFamily
}

type promFamily struct {
	typ   string
	help  string
	lines []string
}

// NewPromSection returns an empty section.
func NewPromSection() *PromSection {
	return &PromSection{families: make(map[string]*promFamily)}
}

func (p *PromSection) family(name, typ, help string) *promFamily {
	f := p.families[name]
	if f == nil {
		f = &promFamily{typ: typ, help: help}
		p.families[name] = f
	}
	return f
}

// Counter adds an unlabelled counter sample.
func (p *PromSection) Counter(name, help string, v int64) {
	p.Sample(name, "counter", help, "", v)
}

// Gauge adds an unlabelled gauge sample.
func (p *PromSection) Gauge(name, help string, v int64) {
	p.Sample(name, "gauge", help, "", v)
}

// Sample adds one sample; labels is the rendered label list without braces
// (e.g. `shard="shard-0"`, built with Label), empty for none.
func (p *PromSection) Sample(name, typ, help, labels string, v int64) {
	f := p.family(name, typ, help)
	if labels == "" {
		f.lines = append(f.lines, fmt.Sprintf("%s %d", name, v))
		return
	}
	f.lines = append(f.lines, fmt.Sprintf("%s{%s} %d", name, labels, v))
}

// Histogram adds a histogram family: cumulative _bucket samples plus _sum
// and _count.
func (p *PromSection) Histogram(name, help string, h HistogramSnapshot) {
	f := p.family(name, "histogram", help)
	for _, b := range h.Buckets {
		le := fmt.Sprintf("%d", b.Le)
		if b.Le >= int64(1)<<62-1 {
			le = "+Inf"
		}
		f.lines = append(f.lines, fmt.Sprintf("%s_bucket{le=%q} %d", name, le, b.Count))
	}
	f.lines = append(f.lines,
		fmt.Sprintf("%s_sum %d", name, h.Sum),
		fmt.Sprintf("%s_count %d", name, h.Count))
}

// Render writes the section: families sorted by name, each with its HELP
// and TYPE header.
func (p *PromSection) Render(w io.Writer) {
	names := make([]string, 0, len(p.families))
	for name := range p.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := p.families[name]
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, f.help, name, f.typ)
		for _, line := range f.lines {
			fmt.Fprintln(w, line)
		}
	}
}

// Label renders one key="value" label pair with the value escaped; join
// several with commas for Sample's labels argument.
func Label(key, value string) string {
	return key + `="` + escapeLabel(value) + `"`
}

var (
	buildOnce sync.Once
	buildGo   string
	buildRev  string
)

// BuildInfo returns the running binary's Go version and VCS revision (from
// runtime/debug.ReadBuildInfo), "unknown" when the binary was built without
// VCS stamping — e.g. via go run or from a non-repository checkout.
func BuildInfo() (goVersion, revision string) {
	buildOnce.Do(func() {
		buildGo = runtime.Version()
		buildRev = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			if bi.GoVersion != "" {
				buildGo = bi.GoVersion
			}
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" && s.Value != "" {
					buildRev = s.Value
				}
			}
		}
	})
	return buildGo, buildRev
}

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format, metric names prefixed spex_, families sorted by name so scrapes
// are deterministic.
func WritePrometheus(w io.Writer, s Snapshot) {
	p := NewPromSection()
	goVersion, revision := BuildInfo()
	p.Sample("spex_build_info", "gauge", "build metadata of the serving binary (constant 1)",
		Label("go_version", goVersion)+","+Label("revision", revision), 1)

	p.Counter("spex_events_total", "document-stream events processed", s.Events)
	p.Counter("spex_elements_total", "element start messages processed", s.Elements)
	p.Counter("spex_bytes_total", "input bytes consumed", s.Bytes)
	p.Gauge("spex_depth", "current document depth d", s.Depth)
	p.Gauge("spex_depth_max", "maximum document depth d", s.MaxDepth)
	p.Counter("spex_matches_total", "answers flushed to the sink", s.Matches)
	p.Counter("spex_candidates_total", "answer candidates proposed", s.Candidates)
	p.Counter("spex_dropped_total", "candidates whose condition became false", s.Dropped)
	p.Gauge("spex_queued", "candidates awaiting determination or document order", s.Queued)
	p.Gauge("spex_queued_max", "maximum simultaneously queued candidates", s.MaxQueued)
	p.Gauge("spex_buffered_events", "buffered answer-content events", s.Buffered)
	p.Gauge("spex_buffered_events_max", "maximum simultaneously buffered content events", s.MaxBuffered)
	p.Counter("spex_early_terminations_total", "sinks whose answer became fixed before end of stream (limit reached)", s.EarlyTerms)
	p.Gauge("spex_ingest_arena_bytes", "arena tape bytes carved by the most recent completed scan", s.IngestArenaBytes)
	p.Gauge("spex_ingest_arena_blocks", "arena tape blocks in use after the most recent completed scan", s.IngestArenaBlocks)
	p.Gauge("spex_ingest_arena_attrs", "attribute slots carved from the attr arena by the most recent completed scan", s.IngestArenaAttrs)
	p.Gauge("spex_ingest_buffer_bytes", "scan buffer size of the most recent completed scan", s.IngestBufferBytes)
	p.Gauge("spex_symtab_size", "distinct label names interned in the symbol table", s.SymtabSize)
	p.Counter("spex_symtab_hits_total", "symbol-table lookups answered from the read-mostly snapshot", s.SymtabHits)
	p.Counter("spex_symtab_misses_total", "symbol-table lookups that inserted a new name", s.SymtabMisses)
	p.Gauge("spex_stack_max", "maximum transducer stack entries (bounded by d, Lemma V.2)", s.MaxStack)
	p.Gauge("spex_formula_max", "maximum condition-formula size (bounded by o(phi))", s.MaxFormula)
	p.Gauge("spex_live_vars", "live condition variables in the pool", s.LiveVars)
	p.Gauge("spex_heap_alloc_bytes", "live heap sample", int64(s.HeapAlloc))

	p.Counter("spex_trace_events_total", "trace events recorded by the associated ring tracer", s.TraceTotal)
	p.Counter("spex_trace_dropped_total", "trace events evicted by the ring tracer (overrun)", s.TraceDropped)

	p.Counter("spex_governor_fails_total", "runs terminated by the resource governor (policy fail)", s.GovernorFails)
	p.Counter("spex_governor_degrades_total", "sinks degraded to count-only mode (policy degrade)", s.GovernorDegrades)
	p.Counter("spex_governor_sheds_total", "subscriptions shed by the resource governor (policy shed)", s.GovernorSheds)
	for _, g := range s.GovernorTrips {
		p.Sample("spex_governor_trips_total", "counter", "resource-limit trips by governed resource",
			Label("resource", g.Resource), g.Trips)
	}

	p.Gauge("spex_setcompile_naive_transducers", "transducers the query set would need without merging", s.SetcompileNaive)
	p.Gauge("spex_setcompile_merged_transducers", "transducers in the merged query-set network", s.SetcompileMerged)
	p.Gauge("spex_setcompile_pruned_queries", "queries pruned as statically unsatisfiable", s.SetcompilePruned)
	p.Gauge("spex_setcompile_collapsed_queries", "queries collapsed onto an equivalent representative's sink", s.SetcompileCollapsed)
	p.Gauge("spex_setcompile_contained_queries", "one-way query containments detected by the set compiler", s.SetcompileContained)

	p.Histogram("spex_step_messages", "deliveries per document event: transducers visited, activations delivered and determinations applied", s.StepMessages)
	p.Histogram("spex_decision_latency_events", "stream events from candidate creation to condition resolution", s.DecisionLatency)
	p.Histogram("spex_candidate_lifetime_events", "stream events from candidate creation to leaving the sink", s.CandidateLifetime)
	p.Histogram("spex_stream_latency_ns", "nanoseconds from last input read to answer emission", s.StreamLatency)

	for _, sh := range s.Shards {
		shard := Label("shard", sh.Name)
		p.Sample("spex_shard_batches_total", "counter", "event batches evaluated per SDI shard", shard, sh.Batches)
		p.Sample("spex_shard_events_total", "counter", "stream events evaluated per SDI shard", shard, sh.Events)
		p.Sample("spex_shard_hits_total", "counter", "answers produced per SDI shard", shard, sh.Hits)
		p.Sample("spex_shard_busy_ns_total", "counter", "nanoseconds spent evaluating batches per SDI shard", shard, sh.BusyNs)
		p.Sample("spex_shard_subs", "gauge", "subscriptions assigned per SDI shard", shard, sh.Subs)
		p.Sample("spex_shard_queue", "gauge", "inbound batch-queue depth per SDI shard", shard, sh.Queue)
		p.Sample("spex_shard_queue_max", "gauge", "maximum inbound batch-queue depth per SDI shard", shard, sh.MaxQueue)
	}

	for _, t := range s.Transducers {
		name := t.Name
		const help = "deliveries by transducer, direction and kind (doc in: visits; det out: originated, det in: resolutions touching a sink)"
		for _, d := range []struct {
			dir, kind string
			n         int64
		}{{"in", "doc", t.InDoc}, {"in", "act", t.InAct}, {"in", "det", t.InDet}, {"out", "act", t.OutAct}, {"out", "det", t.OutDet}} {
			p.Sample("spex_transducer_messages_total", "counter", help,
				Label("transducer", name)+","+Label("dir", d.dir)+","+Label("kind", d.kind), d.n)
		}
		tl := Label("transducer", name)
		p.Sample("spex_transducer_out_degree", "gauge", "destinations of the transducer's output port (splits and shared subexpressions are wiring, not transducers)", tl, t.OutDegree)
		p.Sample("spex_transducer_stack", "gauge", "current depth/condition stack entries per transducer", tl, t.Stack)
		p.Sample("spex_transducer_stack_max", "gauge", "maximum depth/condition stack entries per transducer", tl, t.MaxStack)
		p.Sample("spex_transducer_formula_max", "gauge", "maximum condition-formula size per transducer", tl, t.MaxFormula)
	}

	p.Render(w)
}

// escapeLabel sanitizes a Prometheus label value (backslash, quote,
// newline).
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(s)
}

// MetricsHandler serves the registry in the Prometheus text format. Extra
// section writers, if any, are rendered after the registry's own metrics on
// the same endpoint — a serving layer appends its spex_server_* section
// without a second scrape target.
func MetricsHandler(m *Metrics, extras ...func(io.Writer)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		drainBody(r)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, m.Snapshot())
		for _, extra := range extras {
			extra(w)
		}
	})
}

// JSONHandler serves the registry as one JSON document (expvar-style).
func JSONHandler(m *Metrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		drainBody(r)
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = WriteJSON(w, m.Snapshot())
	})
}

// drainBody consumes a (bounded) request body the handler has no use for,
// so the keep-alive connection stays reusable even when a scraper POSTs.
func drainBody(r *http.Request) {
	if r.Body != nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(r.Body, 64<<10))
	}
}

// NewServeMux returns a mux serving the registry and the runtime profiler:
//
//	/metrics      Prometheus text format (plus any extra sections)
//	/vars         snapshot as JSON (expvar-style)
//	/debug/pprof  net/http/pprof
func NewServeMux(m *Metrics, extras ...func(io.Writer)) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", MetricsHandler(m, extras...))
	mux.Handle("GET /vars", JSONHandler(m))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
