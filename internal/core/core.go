// Package core is the SPEX engine: it ties the query language, the
// transducer-network compiler and the stream scanner together into prepared
// plans and evaluations. The public API in the repository root package is a
// thin veneer over this package.
package core

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/rpeq"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// Plan is a prepared query: a parsed rpeq ready to be instantiated as a
// transducer network. Plans are immutable and safe for concurrent use; each
// evaluation builds its own network (linear in the query size, Lemma V.1:
// 27 µs of a 74 ms closure_qual pass, so single queries do not keep theirs).
//
// A plan owns a symbol table: the query's labels are interned at prepare
// time, every evaluation compiles its label tests against the same table,
// and reader-fed evaluations attach the table to the scanner so events
// arrive symbol-resolved. The table is concurrency-safe, so concurrent
// evaluations of one plan share it (and amortize each other's misses).
type Plan struct {
	expr   rpeq.Node
	source string
	symtab *xmlstream.Symtab
	// limit is the plan's answer budget from a trailing "limit N"/"first"
	// clause (0 = unlimited); EvalOptions.Limit can override per evaluation.
	limit int64
}

// Prepare parses an rpeq expression into a plan. A trailing "limit N" or
// "first" clause caps the answer count: evaluation stops reading the stream
// as soon as the first N answers (in document order) are fixed.
func Prepare(expr string) (*Plan, error) {
	var limit int64
	node, err := rpeq.Parse(expr, rpeq.WithLimit(&limit))
	if err != nil {
		return nil, err
	}
	return &Plan{expr: node, source: expr, symtab: xmlstream.NewSymtab(), limit: limit}, nil
}

// PrepareXPath parses an expression in the paper's XPath fragment
// (child/descendant steps with structural and attribute qualifiers) into a
// plan. The same trailing "limit N"/"first" clause as Prepare is accepted.
func PrepareXPath(path string) (*Plan, error) {
	var limit int64
	node, err := rpeq.Parse(path, rpeq.WithXPath(), rpeq.WithLimit(&limit))
	if err != nil {
		return nil, err
	}
	return &Plan{expr: node, source: path, symtab: xmlstream.NewSymtab(), limit: limit}, nil
}

// FromAST wraps an already-built expression tree.
func FromAST(expr rpeq.Node) *Plan {
	return &Plan{expr: expr, source: expr.String(), symtab: xmlstream.NewSymtab()}
}

// String returns the source expression.
func (p *Plan) String() string { return p.source }

// Expr returns the parsed expression tree.
func (p *Plan) Expr() rpeq.Node { return p.expr }

// Symtab returns the plan's symbol table, for callers that feed the plan
// pre-scanned events and want to share the interner with their scanner.
func (p *Plan) Symtab() *xmlstream.Symtab { return p.symtab }

// Limit returns the plan's answer budget (0 = unlimited).
func (p *Plan) Limit() int64 { return p.limit }

// Limited returns a copy of the plan with the given answer budget (n <= 0
// removes it). The copy shares the parsed expression and the symbol table,
// so deriving limited variants of a prepared plan is free.
func (p *Plan) Limited(n int64) *Plan {
	cp := *p
	if n < 0 {
		n = 0
	}
	cp.limit = n
	return &cp
}

// EvalOptions configure one evaluation.
type EvalOptions struct {
	Mode spexnet.ResultMode
	Sink spexnet.Sink
	// Ctx, when non-nil, bounds a reader-fed evaluation: cancellation or
	// deadline expiry is checked at every read of the input, so an
	// abandoned or overdue evaluation stops consuming the stream promptly.
	// Source-fed evaluations (Evaluate, push-mode runs) ignore it — the
	// caller owns the feed loop there.
	Ctx context.Context
	// StreamSink receives answers event by event (spexnet.ModeStream).
	StreamSink spexnet.StreamSink
	// Tracer observes every transducer emission (paper-style transition
	// traces, Figs. 4/5/13); nil disables tracing at zero cost.
	Tracer obs.Tracer
	// Metrics attaches live instrumentation readable from other goroutines
	// mid-stream; nil keeps the uninstrumented fast path.
	Metrics *obs.Metrics
	// Symtab overrides the plan's own symbol table — a multi-query engine
	// passes its set-wide table here so all member networks and the shared
	// scanner agree on one symbol space. Nil uses the plan's table.
	Symtab *xmlstream.Symtab
	// NoInterning evaluates on the string-matching pipeline (the interning
	// ablation's baseline): no symbol table anywhere, string label tests.
	NoInterning bool
	// Governor attaches the resource governor: hard caps on condition
	// formulas, candidates, buffered content, per-step messages, live
	// variables and depth, with a fail/degrade/shed policy. Nil (or
	// all-zero limits) evaluates ungoverned.
	Governor *governor.Config
	// GovernorMetrics receives governor trip counters without full
	// per-event instrumentation (see spexnet.Options.GovernorMetrics).
	GovernorMetrics *obs.Metrics
	// SinkMetrics receives the sink-side candidate-lifecycle histograms
	// (decision latency, candidate lifetime, stream latency) without full
	// per-event instrumentation (see spexnet.Options.SinkMetrics). Nil
	// falls back to Metrics.
	SinkMetrics *obs.Metrics
	// TraceID is the stream-scoped trace identifier stamped on every trace
	// record of this evaluation, correlating it with the request or stream
	// that started it. Empty leaves trace records unstamped.
	TraceID string
	// Limit caps the answer count for this evaluation: positive overrides
	// the plan's own limit, zero uses the plan's (from a "limit N"/"first"
	// clause), negative forces unlimited evaluation regardless of the plan.
	// With a limit in effect the evaluation is determined — and the stream
	// disconnected — as soon as the first Limit answers are fixed.
	Limit int64
}

// symtabFor resolves which symbol table an evaluation of plan p uses.
func (o EvalOptions) symtabFor(p *Plan) *xmlstream.Symtab {
	if o.NoInterning {
		return nil
	}
	if o.Symtab != nil {
		return o.Symtab
	}
	return p.symtab
}

// limitFor resolves the evaluation's effective answer budget.
func (o EvalOptions) limitFor(p *Plan) int64 {
	switch {
	case o.Limit > 0:
		return o.Limit
	case o.Limit < 0:
		return 0
	default:
		return p.limit
	}
}

func (o EvalOptions) netOptions(p *Plan) spexnet.Options {
	return spexnet.Options{
		Limit:           o.limitFor(p),
		Mode:            o.Mode,
		Sink:            o.Sink,
		StreamSink:      o.StreamSink,
		Tracer:          o.Tracer,
		Metrics:         o.Metrics,
		Symtab:          o.symtabFor(p),
		NoInterning:     o.NoInterning,
		Governor:        o.Governor,
		GovernorMetrics: o.GovernorMetrics,
		SinkMetrics:     o.SinkMetrics,
		TraceID:         o.TraceID,
	}
}

// Evaluate runs the plan over the event source and returns the evaluation
// statistics. The stream is processed in one pass; results reach the sink
// progressively.
func (p *Plan) Evaluate(src xmlstream.Source, opts EvalOptions) (spexnet.Stats, error) {
	// A scanner source shares the evaluation's symbol table so events
	// arrive pre-resolved; a scanner already bound to another table keeps
	// it and the network compiles against that table instead — symbols
	// from different tables must never meet.
	if sc, ok := src.(interface {
		AdoptSymtab(*xmlstream.Symtab) bool
		SymtabInUse() *xmlstream.Symtab
	}); ok {
		if st := opts.symtabFor(p); st != nil && !sc.AdoptSymtab(st) {
			opts.Symtab = sc.SymtabInUse()
		}
	}
	net, err := spexnet.Build(p.expr, opts.netOptions(p))
	if err != nil {
		return spexnet.Stats{}, err
	}
	stats, err := net.Run(src)
	publishIngest(opts, src)
	return stats, err
}

// publishIngest surfaces the source's arena/buffer accounting on the
// attached metrics registry after a scan, when the source is one of the
// xmlstream scanners. Published once per evaluation rather than per event:
// the arenas only grow monotonically within a scan, so the final reading is
// the scan's footprint.
func publishIngest(opts EvalOptions, src xmlstream.Source) {
	m := opts.Metrics
	if m == nil {
		m = opts.SinkMetrics
	}
	if m == nil {
		return
	}
	if cs, ok := src.(*ctxSource); ok {
		src = cs.src
	}
	if is, ok := src.(interface{ IngestStats() xmlstream.IngestStats }); ok {
		st := is.IngestStats()
		m.SetIngest(st.ArenaBytes, st.ArenaBlocks, st.ArenaAttrs, st.BufferBytes)
	}
}

// scanners recycles the scanners of reader- and bytes-fed evaluations: a
// scanner is a 64 KiB window, a pending ring and two arenas, all of which
// Reset keeps, so an evaluation that finds one here allocates nothing for
// ingest. Scanners carry no state from one document to the next beyond that
// storage — Reset re-applies the evaluation's scan options.
var scanners sync.Pool

// AcquireScanner returns a scanner over r — or, with r nil, over the
// in-memory document data — configured by opts, from the pool when it has
// one. The caller hands it back with ReleaseScanner when the evaluation is
// over; every event the scanner delivered is dead from then on.
func AcquireScanner(r io.Reader, data []byte, opts ...xmlstream.ScannerOption) *xmlstream.Scanner {
	sc, _ := scanners.Get().(*xmlstream.Scanner)
	if sc == nil {
		sc = xmlstream.ScanBytes(nil) // owns nothing yet; Reset gives it a window
	}
	if r != nil {
		sc.Reset(r, opts...)
	} else {
		sc.ResetBytes(data, opts...)
	}
	return sc
}

// ReleaseScanner returns a scanner taken with AcquireScanner to the pool,
// dropping its reference to the input first.
func ReleaseScanner(sc *xmlstream.Scanner) {
	sc.ResetBytes(nil)
	scanners.Put(sc)
}

// scanOptions are the scanner settings of a reader- or bytes-fed evaluation
// of the plan. Character data plays no structural role in rpeq evaluation, so
// the scanner skips text events entirely unless answers carry content or a
// text test reads them; attribute lists ride on start events only when
// something reads them: an attribute test or step in the query, or serialized
// answers (which must round-trip the attributes of their subtrees). The
// evaluation's symbol table is shared with the scanner: events arrive
// pre-resolved and every label test downstream is one integer comparison.
func (p *Plan) scanOptions(opts EvalOptions) []xmlstream.ScannerOption {
	content := opts.Mode == spexnet.ModeSerialize || opts.Mode == spexnet.ModeStream
	return []xmlstream.ScannerOption{
		xmlstream.WithText(content || rpeq.HasTextTest(p.expr)),
		xmlstream.WithAttributes(content || rpeq.HasAttrTest(p.expr)),
		xmlstream.WithSymtab(opts.symtabFor(p)),
	}
}

// EvaluateReader is Evaluate over raw XML bytes, on a pooled scanner. When a
// metrics registry is attached the reader is wrapped so its Bytes instrument
// counts the input consumed.
func (p *Plan) EvaluateReader(r io.Reader, opts EvalOptions) (spexnet.Stats, error) {
	if opts.Ctx != nil {
		r = &ctxReader{ctx: opts.Ctx, r: r}
	}
	if opts.Metrics != nil {
		// The read timestamp is the reference point the sink's
		// stream-latency histogram measures answer emissions against.
		r = &obs.CountingReader{R: r, C: &opts.Metrics.Bytes, LastReadNs: &opts.Metrics.LastReadNs}
	} else if opts.SinkMetrics != nil {
		r = &obs.CountingReader{R: r, C: &opts.SinkMetrics.Bytes, LastReadNs: &opts.SinkMetrics.LastReadNs}
	}
	sc := AcquireScanner(r, nil, p.scanOptions(opts)...)
	defer ReleaseScanner(sc)
	stats, err := p.Evaluate(sc, opts)
	// A cancellation that lands after the reader's final chunk was already
	// buffered would otherwise go unnoticed; a cancelled evaluation must
	// never report success.
	if err == nil && opts.Ctx != nil {
		err = opts.Ctx.Err()
	}
	return stats, err
}

// EvaluateBytes is Evaluate over an in-memory document — the mmap/file fast
// path. The scanner works zero-copy on data: text and attribute values are
// views into it (entity-decoded ones and attribute lists are carved from the
// scanner's arenas), valid for the whole evaluation, never per-event
// allocations. data must not be mutated while the evaluation runs.
func (p *Plan) EvaluateBytes(data []byte, opts EvalOptions) (spexnet.Stats, error) {
	sc := AcquireScanner(nil, data, p.scanOptions(opts)...)
	defer ReleaseScanner(sc)
	var src xmlstream.Source = sc
	if m := opts.Metrics; m != nil {
		m.Bytes.Add(int64(len(data)))
	} else if m := opts.SinkMetrics; m != nil {
		m.Bytes.Add(int64(len(data)))
	}
	if opts.Ctx != nil {
		src = &ctxSource{ctx: opts.Ctx, src: src}
	}
	stats, err := p.Evaluate(src, opts)
	if err == nil && opts.Ctx != nil {
		err = opts.Ctx.Err()
	}
	return stats, err
}

// ctxSource threads a context through a bytes-fed event source the way
// ctxReader does for readers: cancellation is checked on a short stride of
// events and surfaces as the source's error, unwinding the evaluation.
type ctxSource struct {
	ctx context.Context
	src xmlstream.Source
	n   int
}

// ctxSourceStride is how many events flow between context checks.
const ctxSourceStride = 128

func (c *ctxSource) Next() (xmlstream.Event, error) {
	if c.n++; c.n >= ctxSourceStride {
		c.n = 0
		if err := c.ctx.Err(); err != nil {
			return xmlstream.Event{}, err
		}
	}
	return c.src.Next()
}

// ctxReader aborts an evaluation's input at context cancellation: the
// scanner surfaces the context error like any read failure, so the
// evaluation unwinds without a separate cancellation channel through the
// network.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// Count evaluates and returns only the number of answers.
func (p *Plan) Count(r io.Reader) (int64, spexnet.Stats, error) {
	stats, err := p.EvaluateReader(r, EvalOptions{Mode: spexnet.ModeCount})
	return stats.Output.Matches, stats, err
}

// Run is a push-mode evaluation for unbounded streams: the caller feeds
// events as they arrive and answers surface through the sink the run was
// created with, as soon as their membership is determined.
type Run struct {
	net     *spexnet.Network
	metrics *obs.Metrics
	opened  bool
	closed  bool
}

// NewRun instantiates a network for push-mode evaluation.
func (p *Plan) NewRun(opts EvalOptions) (*Run, error) {
	net, err := spexnet.Build(p.expr, opts.netOptions(p))
	if err != nil {
		return nil, err
	}
	return &Run{net: net, metrics: opts.Metrics}, nil
}

// RunNetwork wraps an already-built network in the push-mode lifecycle. The
// multi-query engine drives its set network through it, so the synthesized
// document boundaries, the release at the determining event and the
// end-of-stream validation are written once, here.
func RunNetwork(net *spexnet.Network) *Run { return &Run{net: net} }

// Feed pushes one event. The first event must be StartDocument; Feed
// synthesizes it if the caller starts with an element event.
func (r *Run) Feed(ev xmlstream.Event) error {
	if r.closed {
		return fmt.Errorf("core: run already closed")
	}
	if !r.opened {
		r.opened = true
		if ev.Kind != xmlstream.StartDocument {
			if err := r.net.Step(xmlstream.Event{Kind: xmlstream.StartDocument}); err != nil {
				return err
			}
		}
	}
	if err := r.net.Step(ev); err != nil {
		return err
	}
	if r.net.AnswerDetermined() {
		// The answer is fixed: release the network's candidate state right
		// away (the governor's headroom returns at the determination event)
		// and ignore whatever the feeder still delivers. The run stays
		// queryable — Matches and Stats were frozen by the release.
		r.net.Release()
		return nil
	}
	if ev.Kind == xmlstream.EndDocument {
		r.closed = true
		return r.net.Finish()
	}
	return nil
}

// Close ends the stream, synthesizing the end-document event if needed, and
// validates the evaluation. A run whose answer was determined mid-stream
// (limit reached) is released instead: the stream is half-consumed by
// design, so the end-document balance check does not apply.
func (r *Run) Close() error {
	if r.closed {
		return nil
	}
	if r.net.AnswerDetermined() {
		r.Release()
		return nil
	}
	if !r.opened {
		if err := r.net.Step(xmlstream.Event{Kind: xmlstream.StartDocument}); err != nil {
			return err
		}
	}
	r.closed = true
	if err := r.net.Step(xmlstream.Event{Kind: xmlstream.EndDocument}); err != nil {
		return err
	}
	return r.net.Finish()
}

// Rewind readies the run for another document on the same network, if the last
// one left it clean (spexnet.Network.Clean), and reports whether it did. A run
// that ended any other way — an error, a governor trip, an early release, or
// no document at all — is left as it is, for its owner to replace.
func (r *Run) Rewind() bool {
	if !r.net.Clean() {
		return false
	}
	r.net.Rewind()
	r.opened, r.closed = false, false
	return true
}

// Determined reports whether the run's answer is already fixed (every sink
// reached its answer limit): the caller may stop feeding events, and Close
// releases the half-consumed run instead of validating stream balance.
func (r *Run) Determined() bool { return r.net.AnswerDetermined() }

// Release abandons the run without finishing the stream: transducer stacks,
// tape buffers and queued candidates are dropped and the condition pool's
// variables are returned. For a run that decided early (a mid-stream
// filtering verdict) Release is the correct exit — Close would feed a
// synthetic end-document into a half-consumed stream and fail the balance
// check. Safe to call more than once, and after Close.
func (r *Run) Release() {
	r.closed = true
	r.net.Release()
}

// Matches returns the number of answers reported so far; valid while the
// run is open (progressive monitoring) and after Close.
func (r *Run) Matches() int64 { return r.net.Matches() }

// Stats returns the evaluation statistics so far. It reads the network's
// own state and must be called from the feeding goroutine (between Feed
// calls); for cross-goroutine polling use Snapshot.
func (r *Run) Stats() spexnet.Stats { return r.net.Stats() }

// Snapshot returns a point-in-time view of the run's metrics registry plus
// a heap sample. Unlike Stats it is safe to call from any goroutine while
// another is feeding events. When the run was created without a Metrics
// registry the snapshot has Enabled == false and zero instruments.
func (r *Run) Snapshot() obs.Snapshot {
	if r.metrics == nil {
		return obs.Snapshot{}
	}
	return r.metrics.Snapshot()
}
