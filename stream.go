package spex

import (
	"context"
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/multi"
	"repro/internal/obs"
	"repro/internal/rpeq"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// ResultWriter receives answers progressively, fragment by fragment: the
// content of an answer is forwarded as the input stream delivers it, the
// moment the answer's membership in the result is known (and document order
// permits). Only answers waiting behind an undecided or unfinished earlier
// answer are buffered.
type ResultWriter interface {
	// ResultStart announces an answer (document-order index and label).
	ResultStart(m Match)
	// ResultXML delivers the next serialized fragment of the current
	// answer.
	ResultXML(fragment string)
	// ResultEnd closes the current answer.
	ResultEnd(m Match)
}

// StreamResults evaluates the query over r, delivering answers through w
// progressively. Unlike Results, which hands over each answer complete,
// StreamResults forwards an accepted answer's content as it arrives — an
// answer spanning gigabytes flows through without being held in memory.
func (q *Query) StreamResults(r io.Reader, w ResultWriter, opts ...StreamOption) (Stats, error) {
	var name string
	sink := spexnet.NewStreamSink(
		func(index int64, n string) {
			name = n
			w.ResultStart(Match{Index: index, Name: n})
		},
		func(ev xmlstream.Event) {
			switch ev.Kind {
			case xmlstream.StartElement:
				w.ResultXML("<" + ev.Name + ">")
			case xmlstream.EndElement:
				w.ResultXML("</" + ev.Name + ">")
			case xmlstream.Text:
				w.ResultXML(xmlstream.EscapeText(ev.Data))
			}
		},
		func(index int64) { w.ResultEnd(Match{Index: index, Name: name}) },
	)
	eo := core.EvalOptions{Mode: spexnet.ModeStream, StreamSink: sink}
	for _, opt := range opts {
		opt(&eo)
	}
	return q.plan.EvaluateReader(r, eo)
}

// MatchesDoc reports whether the document matches the query at all — the
// selective-dissemination decision of XFilter/YFilter (§VIII). It is a
// limit-1 count evaluation: the first answer determines the network, which
// releases its state and stops reading the stream right there, so a match
// near the start of a long stream costs almost nothing.
func (q *Query) MatchesDoc(r io.Reader) (bool, error) {
	stats, err := q.plan.EvaluateReader(r, core.EvalOptions{Mode: spexnet.ModeCount, Limit: 1})
	if err != nil {
		return false, err
	}
	return stats.Output.Matches > 0, nil
}

// SetOption configures a query Set.
type SetOption func(*setConfig)

type setConfig struct {
	// parallel shards the set's one engine over a worker pool; shards <= 0
	// means one shard per CPU.
	parallel bool
	shards   int
	gov      *governor.Config
	metrics  *obs.Metrics
	traceID  string
}

// Merged does nothing: every Set compiles through the query-set compiler.
//
// Deprecated: the merged engine is the only set engine, so there is nothing
// left to select. The option remains only because the repository benchmark
// (benchmark/workloads.go), which a change to the engine may not edit,
// passes it.
func Merged() SetOption {
	return func(*setConfig) {}
}

// Parallel partitions the set's queries over a pool of worker shards fed in
// batches from the scanning goroutine, each shard compiling its partition
// into its own merged network; shards ≤ 0 selects one shard per available
// CPU. Answer callbacks run on a single delivery goroutine (never
// concurrently), in per-query document order.
func Parallel(shards int) SetOption {
	return func(c *setConfig) {
		c.parallel = true
		c.shards = shards
	}
}

// Governed attaches a resource governor to the set: non-zero caps in l are
// enforced under policy p on the set's network (each shard's, under
// Parallel) and on every query's sink. Under PolicyShed a query that trips
// its candidate or buffer cap is dropped from the pass (its counts freeze)
// while the remaining queries keep evaluating; under PolicyFail the first
// trip aborts the whole pass with a *LimitError identifying the
// subscription.
func Governed(l ResourceLimits, p Policy) SetOption {
	cfg := &governor.Config{Limits: l, Policy: p}
	return func(c *setConfig) { c.gov = cfg }
}

// SetMetrics binds a metrics registry for governor trip accounting
// (spex_governor_* counters), the sink-side latency histograms, the ingest
// accounting and the set compiler's statistics. It does not enable full
// per-event instrumentation of the network.
func SetMetrics(m *Metrics) SetOption {
	return func(c *setConfig) { c.metrics = m }
}

// SetTraceID stamps every trace record of the set's network with the
// stream-scoped trace identifier and labels the Parallel wrapper's shard
// goroutines with it for pprof, correlating one stream pass across the
// set's network, profiles, and the caller's own records.
func SetTraceID(id string) SetOption {
	return func(c *setConfig) { c.traceID = id }
}

// Set evaluates several compiled queries against one stream in a single
// pass through ONE transducer network (the paper's §IX multi-query
// optimization). The set is first run through the query-set compiler: each
// query is canonicalized (so equivalent queries become structurally
// identical), statically unsatisfiable queries are pruned without compiling
// a single transducer, and equivalent queries collapse onto one shared sink
// whose answers are remapped to every member — with per-query counts and
// answer limits preserved exactly. What remains compiles into a network
// whose common subexpressions, in particular common query prefixes, are
// evaluated once. Every query's answers are identical to evaluating it
// alone. Parallel shards the same engine over a worker pool.
//
// A Set is a standing engine: its network is built at the first evaluation
// and rewound between documents, so a later evaluation pays for its events,
// not for the size of the set. A document that does not end cleanly — malformed
// input, a cancelled context, a governor trip, every answer limit reached, a
// panic in fn — costs the next evaluation a freshly built network, never a
// wrong answer. A Set evaluates one document at a time.
type Set struct {
	queries    []*Query
	fn         func(query int, m Match)
	counts     []int64
	cfg        setConfig
	determined bool
	// subs is the set as the engine takes it, made at the first evaluation.
	// withText/withAttrs record whether any member query needs text or
	// attribute events.
	subs                []multi.Subscription
	withText, withAttrs bool
	// eng is the standing engine of an unsharded set, built with subs and kept
	// for the life of the Set: one compiled program, one network, one symbol
	// table, one formula table and one candidate free list (multi.MergedSet
	// decides, document by document, whether its network is rewound or built
	// again). Parallel sets, whose workers live for one pass, build theirs per
	// evaluation.
	eng *multi.MergedSet
}

// NewSet prepares a set; fn (which may be nil) receives (query position,
// match) for every answer of every query, in document order per query. Under
// Parallel fn runs on the pool's delivery goroutine, not the caller's; it is
// never called concurrently with itself.
func NewSet(queries []*Query, fn func(query int, m Match), opts ...SetOption) *Set {
	s := &Set{queries: queries, fn: fn, counts: make([]int64, len(queries))}
	for _, opt := range opts {
		opt(&s.cfg)
	}
	return s
}

// setEngine is what Evaluate needs from the engine, inline
// (*multi.MergedSet) or sharded (*multi.ParallelSet).
type setEngine interface {
	Run(src xmlstream.Source) error
	Symtab() *xmlstream.Symtab
	MemberCounts(dst []int64) []int64
	Determined() bool
}

// Evaluate streams the document once through the set's engine. Counts are
// reset at entry, so each Evaluate reports one document.
func (s *Set) Evaluate(r io.Reader) error {
	return s.EvaluateContext(context.Background(), r)
}

// EvaluateContext is Evaluate bounded by a context: cancellation or deadline
// expiry is checked on a short stride of stream events and aborts the pass
// with the context's error. Together with the per-hit callback the set was
// built with, this is the streaming hook a long-lived serving layer needs —
// answers surface progressively while the document streams, and a request
// deadline, a disconnected client or a draining server stops the evaluation
// mid-stream instead of running it to completion.
func (s *Set) EvaluateContext(ctx context.Context, r io.Reader) error {
	eng, err := s.engine()
	if err != nil {
		return err
	}
	if m := s.cfg.metrics; m != nil {
		// Counting the input here also stamps the last-read timestamp the
		// sink-side stream-latency histogram measures emissions against.
		r = &obs.CountingReader{R: r, C: &m.Bytes, LastReadNs: &m.LastReadNs}
	}
	sc := core.AcquireScanner(r, nil, s.scanOptions(eng)...)
	defer core.ReleaseScanner(sc)
	return s.finish(ctx, eng, sc)
}

// EvaluateBytes evaluates an in-memory document — the mmap/file fast path.
// The scanner works zero-copy on data (no per-event allocation; text and
// attribute values are views into data, valid for the whole evaluation).
// data must not be mutated while the evaluation runs.
func (s *Set) EvaluateBytes(data []byte) error {
	return s.EvaluateBytesContext(context.Background(), data)
}

// EvaluateBytesContext is EvaluateBytes bounded by a context, with the same
// stride-checked cancellation as EvaluateContext.
func (s *Set) EvaluateBytesContext(ctx context.Context, data []byte) error {
	eng, err := s.engine()
	if err != nil {
		return err
	}
	sc := core.AcquireScanner(nil, data, s.scanOptions(eng)...)
	defer core.ReleaseScanner(sc)
	if m := s.cfg.metrics; m != nil {
		m.Bytes.Add(int64(len(data)))
	}
	return s.finish(ctx, eng, sc)
}

// scanOptions configures the scanner of one evaluation: text and attribute
// events only if some member query needs them, and the engine's symbol table,
// so every event arrives with its label already resolved to an integer symbol.
func (s *Set) scanOptions(eng setEngine) []xmlstream.ScannerOption {
	return []xmlstream.ScannerOption{
		xmlstream.WithText(s.withText), xmlstream.WithAttributes(s.withAttrs), xmlstream.WithSymtab(eng.Symtab())}
}

// engine resets what the last evaluation reported and returns the set's engine
// ready for a document: the standing one, rewound — or built, at the first
// evaluation — or a sharded one for this pass under Parallel (each shard
// compiles its own partition).
func (s *Set) engine() (setEngine, error) {
	clear(s.counts)
	s.determined = false
	if s.subs == nil {
		s.subs = make([]multi.Subscription, len(s.queries))
		for i, q := range s.queries {
			i := i
			s.withText = s.withText || rpeq.HasTextTest(q.plan.Expr())
			s.withAttrs = s.withAttrs || rpeq.HasAttrTest(q.plan.Expr())
			s.subs[i] = multi.Subscription{
				Name: strconv.Itoa(i),
				Plan: q.plan,
				OnHit: func(_ string, res spexnet.Result) {
					s.counts[i]++
					if s.fn != nil {
						s.fn(i, Match{Index: res.Index, Name: res.Name})
					}
				},
			}
		}
	}
	if s.cfg.parallel {
		ps, err := multi.NewParallelSet(s.subs, multi.ParallelOptions{
			Shards:   s.cfg.shards,
			Governor: s.cfg.gov,
			Metrics:  s.cfg.metrics,
			TraceID:  s.cfg.traceID,
		})
		if err != nil {
			return nil, err
		}
		return ps, nil
	}
	if s.eng != nil {
		if err := s.eng.Rewind(); err != nil {
			return nil, err
		}
		return s.eng, nil
	}
	ms, err := multi.NewMergedSet(s.subs,
		multi.WithGovernor(s.cfg.gov), multi.WithMetrics(s.cfg.metrics), multi.WithTraceID(s.cfg.traceID))
	if err != nil {
		return nil, err
	}
	if m := s.cfg.metrics; m != nil {
		st := ms.MergeStats()
		m.SetSetcompile(st.NaiveTransducers, st.MergedTransducers, st.Pruned, st.Collapsed, st.Contained)
	}
	s.eng = ms
	return ms, nil
}

// finish runs the engine over the source and folds its counters back into
// the set, publishing the scan's ingest accounting on the attached registry.
func (s *Set) finish(ctx context.Context, eng setEngine, sc *xmlstream.Scanner) error {
	var run xmlstream.Source = sc
	if ctx.Done() != nil {
		run = &ctxSource{ctx: ctx, src: sc}
	}
	err := eng.Run(run)
	if m := s.cfg.metrics; m != nil {
		st := sc.IngestStats()
		m.SetIngest(st.ArenaBytes, st.ArenaBlocks, st.ArenaAttrs, st.BufferBytes)
	}
	if err != nil {
		return err
	}
	s.determined = eng.Determined()
	// The engine's own counters are authoritative: a query degraded to
	// count-only mode by the governor keeps counting answers it no longer
	// delivers through fn, so the per-hit tally above would undercount it.
	s.counts = eng.MemberCounts(s.counts)
	return nil
}

// ctxCheckStride is how many events flow between context checks: frequent
// enough that cancellation latency stays well under a millisecond on any
// realistic stream, rare enough that the check costs nothing measurable.
const ctxCheckStride = 128

// ctxSource threads a context through a pull-based event source. The
// engines abort on the first source error, so a context error stops the
// pass exactly like a malformed document would.
type ctxSource struct {
	ctx context.Context
	src xmlstream.Source
	n   int
}

func (c *ctxSource) Next() (xmlstream.Event, error) {
	if c.n++; c.n >= ctxCheckStride {
		c.n = 0
		if err := c.ctx.Err(); err != nil {
			return xmlstream.Event{}, err
		}
	}
	return c.src.Next()
}

// Counts returns per-query answer counts from the last Evaluate.
func (s *Set) Counts() []int64 {
	out := make([]int64, len(s.counts))
	copy(out, s.counts)
	return out
}

// Determined reports whether the last Evaluate ended early because every
// query of the set reached its answer limit: the engine disconnected the
// stream at the determining event instead of draining it.
func (s *Set) Determined() bool { return s.determined }
