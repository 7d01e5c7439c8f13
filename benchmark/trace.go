package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	spex "repro"
	"repro/internal/core"
	"repro/internal/multi"
	"repro/internal/rpeq"
	"repro/internal/setcompile"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// Per-layer metric names and units. A run with -trace 1 reports every one for
// every workload; a metric of a layer the workload does not pass through is 0.
var perLayer = [][2]string{
	{"host.memcpy_gb_s", "GB/s"},
	{"host.indexbyte_gb_s", "GB/s"},
	{"xmlstream.scan_ns_per_event", "ns/event"},
	{"xmlstream.share", "ratio"},
	{"xmlstream.events", "count"},
	{"xmlstream.bytes", "B"},
	{"xmlstream.alloc_b_per_event", "B/event"},
	{"xmlstream.arena_kb", "KB"},
	{"xmlstream.symtab_hit_ratio", "ratio"},
	{"xmlstream.serialize_ns_per_answer", "ns/answer"},
	{"rpeq.parse_us", "us"},
	{"spexnet.build_us", "us"},
	{"spexnet.transducers", "count"},
	{"spexnet.step_ns_per_event", "ns/event"},
	{"spexnet.share", "ratio"},
	{"spexnet.alloc_b_per_event", "B/event"},
	{"spexnet.max_stack", "count"},
	{"cond.max_formula", "count"},
	{"spexnet.output_ns_per_event", "ns/event"},
	{"spexnet.candidates", "count"},
	{"spexnet.dropped", "count"},
	{"spexnet.useful_ratio", "ratio"},
	{"spexnet.max_queued", "count"},
	{"spexnet.max_buffered_events", "count"},
	{"setcompile.compile_ms", "ms"},
	{"setcompile.shared_ratio", "ratio"},
	{"setcompile.pruned", "count"},
	{"setcompile.collapsed", "count"},
	{"multi.build_ms", "ms"},
	{"multi.feed_ns_per_event", "ns/event"},
	{"multi.share", "ratio"},
	{"multi.alloc_b_per_event", "B/event"},
	{"sink.share", "ratio"},
	{"bench.share", "ratio"},
	{"server.ingest_overhead_ns_per_event", "ns/event"},
	{"server.share", "ratio"},
	{"server.frames", "count"},
	{"server.frame_bytes", "B"},
	{"server.rejected", "count"},
	{"server.frame_flush_mean_us", "us"},
	{"server.engine_latency_mean_us", "us"},
	{"server.chunk_write_blocked_ms", "ms"},
	{"server.subscribe_ms_p50", "ms"},
	{"loadgen.lateness_p95_ms", "ms"},
	{"obs.overhead_ratio", "ratio"},
	{"governor.overhead_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"latency.answer_p50_ms", "ms"},
	{"latency.answer_p95_ms", "ms"},
	{"latency.samples", "count"},
	{"bench.throughput_median_mb_s", "MB/s"},
	{"bench.throughput_p90_mb_s", "MB/s"},
	{"bench.setup_median_s", "s"},
	{"bench.gen_s", "s"},
	{"bench.oracle_s", "s"},
}

// span is one timed interval at a layer boundary. IDs count from 1 in begin
// order; parent 0 marks the root.
type span struct {
	parent     int
	name       string
	start, end int64 // ns since the tracer's reset
}

// spanRecord is a span as the -spans file holds it.
type spanRecord struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
}

// tracer keeps the spans of one pass in memory. The live workload records
// from two goroutines, hence the lock; in process it is never contended.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	pass  int
	spans []span
}

// reset drops the previous pass's spans and starts the clock of a new one.
func (t *tracer) reset(pass int) {
	t.mu.Lock()
	t.t0, t.pass, t.spans = time.Now(), pass, t.spans[:0]
	t.mu.Unlock()
}

func (t *tracer) begin(parent int, name string) int {
	t.mu.Lock()
	t.spans = append(t.spans, span{parent: parent, name: name, start: int64(time.Since(t.t0))})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	t.spans[id-1].end = int64(time.Since(t.t0))
	t.mu.Unlock()
}

func (t *tracer) records(workload string) []spanRecord {
	out := make([]spanRecord, len(t.spans))
	for i, s := range t.spans {
		out[i] = spanRecord{ID: i + 1, Parent: s.parent, Name: s.name, StartNs: s.start, EndNs: s.end, Workload: workload, Pass: t.pass}
	}
	return out
}

// selfTimes returns, per span name, the summed self time in ns: a span's
// duration minus the part of it its child spans cover. Children may overlap
// (the live workload's do), so the cover is the union of their intervals.
func (t *tracer) selfTimes() map[string]float64 {
	children := make([][]int, len(t.spans)+1)
	for i, s := range t.spans {
		children[s.parent] = append(children[s.parent], i)
	}
	self := map[string]float64{}
	for i, s := range t.spans {
		kids := children[i+1]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].start < t.spans[kids[b]].start })
		covered, upTo := int64(0), s.start
		for _, k := range kids {
			from, to := max(t.spans[k].start, upTo), min(t.spans[k].end, s.end)
			if to > from {
				covered += to - from
				upTo = to
			}
		}
		self[s.name] += float64(s.end - s.start - covered)
	}
	return self
}

// reference is what the untraced slots measured, for the traced passes to
// be compared with.
type reference struct {
	passSeconds   float64 // fastest whole untraced pass
	allocPerEvent float64
}

// batchEvents is how many events the traced loop tokenises before it feeds
// them on: large enough that two clock readings per batch cost nothing,
// small enough to stay in cache. Batched events stay valid because the
// scanner works on a stable window.
const batchEvents = 512

// tracedStats is what one traced pass saw besides its spans.
type tracedStats struct {
	events      int64
	net         spexnet.Stats         // single-query workloads
	merge       setcompile.MergeStats // merged workloads
	transducers int
	symHits     int64
	symMisses   int64
	answers     int64
}

// tracedPass runs the workload once with the harness driving the layers
// itself: parse, build, then alternate scanning a batch of events and
// stepping the network over it, with a span around each and one around every
// sink delivery. count forces count mode (no answers materialised).
func (w *inproc) tracedPass(tr *tracer, pass int, count bool) (tracedStats, error) {
	var st tracedStats
	s := newSink(len(w.queries))
	s.reset()
	tr.reset(pass)
	root := tr.begin(0, "pass")
	step := 0 // the span deliveries nest in

	id := tr.begin(root, "rpeq.parse")
	plans := make([]*core.Plan, len(w.queries))
	// A count-mode pass keeps the scanner options of the delivering one,
	// so both step the network over the same events.
	withText, withAttrs := w.serialize, w.serialize
	for i, q := range w.queries {
		p, err := core.Prepare(q)
		if err != nil {
			return st, err
		}
		plans[i] = p
		withText = withText || rpeq.HasTextTest(p.Expr())
		withAttrs = withAttrs || rpeq.HasAttrTest(p.Expr())
	}
	tr.end(id)

	var (
		feed   func(xmlstream.Event) error
		finish func() error
		symtab *xmlstream.Symtab
		stepAs = "spexnet.step"
		stats  func()
	)
	if w.merged {
		stepAs = "multi.feed"
		subs := make([]multi.Subscription, len(plans))
		for i, p := range plans {
			subs[i] = multi.Subscription{Name: strconv.Itoa(i), Plan: p, OnHit: func(_ string, res spexnet.Result) {
				d := tr.begin(step, "sink.deliver")
				s.hit(i, res.Index)
				tr.end(d)
			}}
		}
		// NewMergedSet runs the set compiler inside; compileAlone times it
		// on its own after the pass.
		id = tr.begin(root, "multi.build")
		ms, err := multi.NewMergedSet(subs)
		if err != nil {
			return st, err
		}
		tr.end(id)
		st.merge = ms.MergeStats()
		feed, finish, symtab = ms.Feed, ms.Close, ms.Symtab()
		stats = func() { st.transducers = ms.Degree() }
	} else {
		mode := spexnet.ModeNodes
		switch {
		case count || w.countOnly:
			mode = spexnet.ModeCount
		case w.serialize:
			mode = spexnet.ModeSerialize
		}
		id = tr.begin(root, "spexnet.build")
		run, err := plans[0].NewRun(core.EvalOptions{Mode: mode, Sink: func(res spexnet.Result) {
			d := tr.begin(step, "sink.deliver")
			if mode == spexnet.ModeSerialize {
				x := tr.begin(d, "xmlstream.serialize")
				xml := xmlstream.Serialize(res.Events)
				tr.end(x)
				s.hitXML(res.Index, xml)
			} else {
				s.hit(0, res.Index)
			}
			tr.end(d)
		}})
		if err != nil {
			return st, err
		}
		tr.end(id)
		feed, finish, symtab = run.Feed, run.Close, plans[0].Symtab()
		stats = func() {
			st.net = run.Stats()
			st.transducers = st.net.Transducers
			if mode == spexnet.ModeCount {
				s.count[0] = st.net.Output.Matches
			}
		}
	}

	h0, m0 := symtab.Stats()
	sc := xmlstream.ScanBytes(w.doc.data, xmlstream.WithText(withText), xmlstream.WithAttributes(withAttrs), xmlstream.WithSymtab(symtab))
	batch := make([]xmlstream.Event, 0, batchEvents)
	for eof := false; !eof; {
		id = tr.begin(root, "xmlstream.scan")
		batch = batch[:0]
		for len(batch) < batchEvents {
			ev, err := sc.Next()
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				return st, err
			}
			batch = append(batch, ev)
		}
		tr.end(id)
		step = tr.begin(root, stepAs)
		for _, ev := range batch {
			if err := feed(ev); err != nil {
				return st, err
			}
		}
		tr.end(step)
	}
	if err := finish(); err != nil {
		return st, err
	}
	tr.end(root)
	if w.merged {
		// The set compiler once more, alone: a second top-level span beside
		// the pass, which lets multi.build be split into compiling the set
		// and building the network without counting any work twice.
		queries := make([]setcompile.Query, len(plans))
		for i, p := range plans {
			queries[i] = setcompile.Query{Name: strconv.Itoa(i), Expr: p.Expr(), Limit: p.Limit()}
		}
		id = tr.begin(0, "setcompile.compile")
		setcompile.Compile(queries)
		tr.end(id)
	}

	stats()
	h1, m1 := symtab.Stats()
	st.symHits, st.symMisses = h1-h0, m1-m0
	st.events = sc.Events()
	for _, n := range s.count {
		st.answers += n
	}
	if !s.matches(w.expect, !(count || w.countOnly)) {
		return st, fmt.Errorf("traced pass %d: answers differ from the oracle", pass)
	}
	return st, nil
}

// scanOnly tokenises the document on the workload's own ingest path with
// nothing downstream, and returns the allocation per event.
func (w *inproc) scanOnly() (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var sc *xmlstream.Scanner
	opts := []xmlstream.ScannerOption{xmlstream.WithText(w.serialize), xmlstream.WithAttributes(w.serialize || w.merged), xmlstream.WithSymtab(xmlstream.NewSymtab())}
	if w.bytesPath {
		sc = xmlstream.ScanBytes(w.doc.data, opts...)
	} else {
		w.rd.rewind()
		sc = xmlstream.NewScanner(w.rd, opts...)
	}
	for {
		if _, err := sc.Next(); err == io.EOF {
			break
		} else if err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(sc.Events()), nil
}

func (w *inproc) traced(budget time.Duration, ref reference) (map[string]float64, []spanRecord, error) {
	// Traced passes for half the budget, at least three. The fastest one —
	// the one the host disturbed least — gives every span-derived number,
	// so the shares add up, and its spans are the ones written out.
	var (
		tr    tracer
		total float64
		self  map[string]float64
		st    tracedStats
		spans []spanRecord
		// The set compiler alone and the whole merged-set construction, each
		// at its fastest over all passes: their difference is too small to
		// take from a single pass.
		compile, build = math.Inf(1), math.Inf(1)
	)
	deadline := time.Now().Add(budget / 2)
	for pass := 1; pass <= 3 || time.Now().Before(deadline); pass++ {
		runtime.GC()
		pst, err := w.tracedPass(&tr, pass, false)
		if err != nil {
			return nil, nil, err
		}
		pself := tr.selfTimes()
		compile, build = min(compile, pself["setcompile.compile"]), min(build, pself["multi.build"])
		if t := float64(tr.spans[0].end - tr.spans[0].start); self == nil || t < total {
			total, self, st, spans = t, pself, pst, tr.records(w.wname)
		}
	}
	ev := float64(st.events)
	scan, ser := self["xmlstream.scan"], self["xmlstream.serialize"]
	out := map[string]float64{
		"xmlstream.scan_ns_per_event": scan / ev,
		"xmlstream.share":             (scan + ser) / total,
		"rpeq.parse_us":               self["rpeq.parse"] / 1e3,
		"sink.share":                  self["sink.deliver"] / total,
		"bench.share":                 self["pass"] / total,
		"trace.overhead_ratio":        total / 1e9 / ref.passSeconds,
	}
	if st.answers > 0 {
		out["xmlstream.serialize_ns_per_answer"] = ser / float64(st.answers)
	}
	if w.merged {
		out["setcompile.compile_ms"] = compile / 1e6
		out["multi.build_ms"] = max(0, build-compile) / 1e6
		out["multi.feed_ns_per_event"] = self["multi.feed"] / ev
		out["multi.share"] = (self["multi.feed"] + self["multi.build"]) / total
	} else {
		out["spexnet.build_us"] = self["spexnet.build"] / 1e3
		out["spexnet.step_ns_per_event"] = self["spexnet.step"] / ev
		out["spexnet.share"] = (self["spexnet.step"] + self["spexnet.build"]) / total
	}

	// Counts repeat exactly from pass to pass.
	out["xmlstream.events"] = float64(st.events)
	out["xmlstream.bytes"] = float64(len(w.doc.data))
	out["xmlstream.symtab_hit_ratio"] = float64(st.symHits) / float64(st.symHits+st.symMisses)
	out["spexnet.transducers"] = float64(st.transducers)
	scanAlloc, err := w.scanOnly()
	if err != nil {
		return nil, nil, err
	}
	out["xmlstream.alloc_b_per_event"] = scanAlloc
	engineAlloc := "spexnet.alloc_b_per_event"
	if w.merged {
		engineAlloc = "multi.alloc_b_per_event"
		out["setcompile.shared_ratio"] = float64(st.merge.MergedTransducers) / float64(st.merge.NaiveTransducers)
		out["setcompile.pruned"] = float64(st.merge.Pruned)
		out["setcompile.collapsed"] = float64(st.merge.Collapsed)
	} else {
		o := st.net.Output
		out["spexnet.max_stack"] = float64(st.net.MaxStack)
		out["cond.max_formula"] = float64(st.net.MaxFormula)
		out["spexnet.candidates"] = float64(o.Candidates)
		out["spexnet.dropped"] = float64(o.Dropped)
		if o.Candidates > 0 {
			out["spexnet.useful_ratio"] = float64(o.Matches) / float64(o.Candidates)
		}
		out["spexnet.max_queued"] = float64(o.MaxQueued)
		out["spexnet.max_buffered_events"] = float64(o.MaxBufferedEvs)
	}
	out[engineAlloc] = ref.allocPerEvent - scanAlloc

	if !w.merged && !w.countOnly {
		// What delivering answers costs the network: the same events stepped
		// in count mode, subtracted.
		counted := 0.0
		until := time.Now().Add(budget / 8)
		for pass := 1; pass <= 3 || time.Now().Before(until); pass++ {
			runtime.GC()
			cst, err := w.tracedPass(&tr, pass, true)
			if err != nil {
				return nil, nil, err
			}
			if c := tr.selfTimes()["spexnet.step"] / float64(cst.events); counted == 0 || c < counted {
				counted = c
			}
		}
		out["spexnet.output_ns_per_event"] = out["spexnet.step_ns_per_event"] - counted
	}

	if w.stream != nil {
		if err := w.overheads(out, budget/4); err != nil {
			return nil, nil, err
		}
	}
	return out, spans, nil
}

// overheads times the pass with a metrics registry attached and with a
// governor whose generous limits never trip, against the plain pass: what
// the two always-available guards cost when switched on. The three variants
// take turns, so a change in the host's mood hits them alike, and each
// reports its best pass.
func (w *inproc) overheads(out map[string]float64, budget time.Duration) error {
	m := spex.NewMetrics()
	generous := spex.ResourceLimits{MaxFormulaSize: 1 << 20, MaxCandidates: 1 << 20, MaxBufferedEvents: 1 << 24,
		MaxStepMessages: 1 << 20, MaxLiveVars: 1 << 20, MaxDepth: 1 << 10}
	variants := [][]spex.StreamOption{nil, {spex.WithMetrics(m)}, {spex.WithResourceLimits(generous, spex.PolicyFail)}}
	s := newSink(1)
	runs := make([]passFunc, len(variants))
	for i, opts := range variants {
		var err error
		if runs[i], err = w.stream(s, opts...); err != nil {
			return err
		}
	}
	best := make([]float64, len(variants))
	until := time.Now().Add(budget)
	for round := 0; round < 3 || time.Now().Before(until); round++ {
		for i, run := range runs {
			s.reset()
			w.rd.rewind()
			t := time.Now()
			if err := run(w.rd); err != nil {
				return err
			}
			if d := time.Since(t).Seconds(); best[i] == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	out["obs.overhead_ratio"] = best[1] / best[0]
	out["governor.overhead_ratio"] = best[2] / best[0]
	out["xmlstream.arena_kb"] = float64(m.Snapshot().IngestArenaBytes) / 1024
	return nil
}
