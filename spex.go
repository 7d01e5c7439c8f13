// Package spex is a streamed and progressive evaluator of regular path
// expressions with XPath-like qualifiers against XML streams, implementing
// the SPEX evaluation model of Olteanu, Kiesling and Bry, "An Evaluation of
// Regular Path Expressions with Qualifiers against XML Streams" (Technical
// Report PMS-FB-2002-12, University of Munich, 2002).
//
// A query such as
//
//	_*.country[province].name
//
// is compiled — in time linear in the query size — into a network of
// pushdown transducers. The XML input is processed in a single pass, one
// event at a time, without ever materializing the document: memory stays
// bounded by the document depth (for the transducer stacks) plus whatever
// answers cannot yet be emitted because their membership in the result is
// still undetermined.
//
// # Quick start
//
//	q := spex.MustCompile("_*.country[province].name")
//	stats, err := q.Results(xmlFile, func(r spex.Result) {
//	    fmt.Println(r.XML)
//	})
//
// The query language is the paper's rpeq grammar: labels, the wildcard "_",
// concatenation ".", union "|", closures "+" and "*" on labels, optional
// "?" and structural qualifiers "[...]" — extended with text-test
// qualifiers (a[b = "v"], also != and *= for contains). CompileXPath
// accepts the equivalent XPath fragment (// and / steps with predicates),
// plus backward axes (parent::, ancestor::, ..), rewritten into the
// forward fragment, and the following/preceding axes.
//
// # Early termination
//
// A trailing "limit N" or "first" clause (both syntaxes) caps the answer
// count: "_*.item limit 1" asks for the first answer in document order.
// As soon as the N-th answer is fixed the evaluation is determined — the
// engine releases all candidate state, stops reading the input, and
// returns, so a limited query over a huge stream reads only the prefix up
// to its last answer (earliest query answering). WithLimit and
// Query.Limited set the same budget programmatically, and MatchesDoc uses
// it to stop at the first answer.
package spex

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// Query is a compiled query. It is immutable and safe for concurrent use;
// each evaluation instantiates its own transducer network.
type Query struct {
	plan *core.Plan
}

// Compile parses an rpeq expression, e.g. "_*.a[b].c".
func Compile(expr string) (*Query, error) {
	p, err := core.Prepare(expr)
	if err != nil {
		return nil, err
	}
	return &Query{plan: p}, nil
}

// MustCompile is Compile panicking on error, for initializing query tables.
func MustCompile(expr string) *Query {
	q, err := Compile(expr)
	if err != nil {
		panic(err)
	}
	return q
}

// CompileXPath parses a query in the XPath fragment the paper covers —
// child (/) and descendant (//) steps, the * name test, structural
// predicates [...], and union (|) — plus the backward axes parent::,
// ancestor::, ancestor-or-self:: and .. (rewritten into the forward
// fragment), self:: and descendant[-or-self]::, the following:: and
// preceding:: axes, and text comparisons in predicates ([lang = "en"]).
// Example: "//country[province]/name".
func CompileXPath(path string) (*Query, error) {
	p, err := core.PrepareXPath(path)
	if err != nil {
		return nil, err
	}
	return &Query{plan: p}, nil
}

// String returns the source expression.
func (q *Query) String() string { return q.plan.String() }

// Limit returns the query's answer budget: the N of a trailing "limit N"
// clause, 1 for "first", or 0 for an unlimited query.
func (q *Query) Limit() int64 { return q.plan.Limit() }

// Limited returns a copy of the query that stops after the first n answers
// in document order (n <= 0 removes any limit). The copy shares the
// compiled plan's expression and symbol table, so deriving limited variants
// is free; the receiver is unchanged.
func (q *Query) Limited(n int64) *Query {
	return &Query{plan: q.plan.Limited(n)}
}

// Match identifies one answer node.
type Match struct {
	// Index is the node's document-order number: the document root is 0
	// and elements count from 1 in order of their start tags.
	Index int64
	// Name is the element label ("$" for the document root).
	Name string
}

// Result is one answer with its serialized subtree.
type Result struct {
	Match
	// XML is the answer's subtree serialized as XML.
	XML string
}

// Stats reports what an evaluation consumed: stream size and depth, network
// degree, maximum transducer stack size and condition-formula size, and
// output-side buffering. See DESIGN.md for how these correspond to the
// paper's complexity results.
type Stats = spexnet.Stats

// Metrics is a live metrics registry (see internal/obs): attach one to a
// Stream with WithMetrics and poll Snapshot from any goroutine while events
// flow. One registry may serve many evaluations; counters accumulate.
type Metrics = obs.Metrics

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// Snapshot is a point-in-time view of a metrics registry plus a heap
// sample, safe to take mid-stream from any goroutine.
type Snapshot = obs.Snapshot

// Tracer observes every transducer emission — the paper's transition traces
// (Figs. 4, 5, 13) as a first-class feature. Attach with WithTracer.
type Tracer = obs.Tracer

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc = obs.TracerFunc

// TraceEvent is one traced transducer emission in the paper's notation.
type TraceEvent = obs.TraceEvent

// TraceFilter selects trace events by message kind and transducer name.
type TraceFilter = obs.TraceFilter

// RingTracer retains the most recent trace events in a fixed-size ring.
type RingTracer = obs.RingTracer

// NewRingTracer returns a ring tracer retaining the last capacity events.
func NewRingTracer(capacity int) *RingTracer { return obs.NewRingTracer(capacity) }

// Count streams the document from r and returns the number of answers.
func (q *Query) Count(r io.Reader, opts ...StreamOption) (int64, error) {
	eo := core.EvalOptions{Mode: spexnet.ModeCount}
	for _, opt := range opts {
		opt(&eo)
	}
	stats, err := q.plan.EvaluateReader(r, eo)
	return stats.Output.Matches, err
}

// Matches streams the document from r, calling fn for every answer in
// document order. Answers are delivered progressively: as soon as an
// answer's membership is determined and all earlier answers have been
// delivered.
func (q *Query) Matches(r io.Reader, fn func(Match), opts ...StreamOption) (Stats, error) {
	eo := core.EvalOptions{
		Mode: spexnet.ModeNodes,
		Sink: func(res spexnet.Result) { fn(Match{Index: res.Index, Name: res.Name}) },
	}
	for _, opt := range opts {
		opt(&eo)
	}
	return q.plan.EvaluateReader(r, eo)
}

// Results streams the document from r, calling fn for every answer with its
// serialized subtree, in document order. An answer's XML is a string of its
// own — fn may keep it — rendered through one buffer the evaluation reuses,
// so an answer costs that one string.
func (q *Query) Results(r io.Reader, fn func(Result), opts ...StreamOption) (Stats, error) {
	var buf []byte
	eo := core.EvalOptions{
		Mode: spexnet.ModeSerialize,
		Sink: func(res spexnet.Result) {
			buf = xmlstream.AppendXML(buf[:0], res.Events)
			fn(Result{
				Match: Match{Index: res.Index, Name: res.Name},
				XML:   string(buf),
			})
		},
	}
	for _, opt := range opts {
		opt(&eo)
	}
	return q.plan.EvaluateReader(r, eo)
}

// WriteResults streams the document from r and writes each answer's XML
// fragment to w, one per line, returning the number of answers. Answers are
// rendered in one reused buffer and written from it: no string is made.
func (q *Query) WriteResults(r io.Reader, w io.Writer, opts ...StreamOption) (int64, error) {
	var n int64
	var werr error
	var buf []byte
	eo := core.EvalOptions{
		Mode: spexnet.ModeSerialize,
		Sink: func(res spexnet.Result) {
			n++
			if werr == nil {
				buf = append(xmlstream.AppendXML(buf[:0], res.Events), '\n')
				_, werr = w.Write(buf)
			}
		},
	}
	for _, opt := range opts {
		opt(&eo)
	}
	if _, err := q.plan.EvaluateReader(r, eo); err != nil {
		return n, err
	}
	return n, werr
}

// EvaluateString runs the query over an XML string and returns the answers;
// a convenience for small documents and tests.
func (q *Query) EvaluateString(doc string) ([]Result, error) {
	var out []Result
	_, err := q.Results(strings.NewReader(doc), func(r Result) { out = append(out, r) })
	return out, err
}

// StreamOption configures an evaluation: accepted by Count, Matches,
// Results, StreamResults and Stream.
type StreamOption func(*core.EvalOptions)

// WithMetrics attaches a metrics registry to the stream: its counters
// update once per event (gauges on a short stride) and Stream.Snapshot (or
// the registry's own Snapshot) can be polled from any goroutine while
// events flow.
func WithMetrics(m *Metrics) StreamOption {
	return func(o *core.EvalOptions) { o.Metrics = m }
}

// WithTracer attaches a tracer observing every transducer emission.
func WithTracer(t Tracer) StreamOption {
	return func(o *core.EvalOptions) { o.Tracer = t }
}

// WithTraceID stamps every trace record of the evaluation with a
// stream-scoped identifier, correlating the records with the request or
// stream that started the evaluation (the spexd server mints one per ingest
// and threads it through to its result frames). Empty leaves records
// unstamped.
func WithTraceID(id string) StreamOption {
	return func(o *core.EvalOptions) { o.TraceID = id }
}

// WithContext bounds a reader-fed evaluation (Count, Matches, Results,
// StreamResults) by ctx: cancellation or deadline expiry is noticed at the
// next read of the input and surfaces as the evaluation's error. Long-lived
// services evaluating untrusted or slow streams use this to enforce
// per-request deadlines; push-mode streams ignore it, since the caller owns
// the feed loop there.
func WithContext(ctx context.Context) StreamOption {
	return func(o *core.EvalOptions) { o.Ctx = ctx }
}

// WithLimit caps the evaluation's answer count: the engine stops reading
// the stream — and releases all candidate state — as soon as the first n
// answers in document order are fixed. n > 0 overrides any limit in the
// query text; n < 0 forces unlimited evaluation; n == 0 keeps the query's
// own "limit N"/"first" clause (the default).
func WithLimit(n int64) StreamOption {
	return func(o *core.EvalOptions) { o.Limit = n }
}

// Stream returns a push-mode evaluation for unbounded or
// application-generated streams: feed events as they arrive; fn observes
// answers progressively. Call Close to finish a bounded stream; for
// genuinely unbounded streams, answers keep flowing as long as events do.
func (q *Query) Stream(fn func(Match), opts ...StreamOption) (*Stream, error) {
	eo := core.EvalOptions{
		Mode: spexnet.ModeNodes,
		Sink: func(res spexnet.Result) { fn(Match{Index: res.Index, Name: res.Name}) },
	}
	for _, opt := range opts {
		opt(&eo)
	}
	run, err := q.plan.NewRun(eo)
	if err != nil {
		return nil, err
	}
	return &Stream{run: run}, nil
}

// Stream is a push-mode evaluation. Its methods must be called from one
// goroutine — except Snapshot, which any goroutine may call.
type Stream struct {
	run   *core.Run
	depth int
}

// StartElement feeds an element start event.
func (s *Stream) StartElement(name string) error {
	if err := s.run.Feed(xmlstream.Start(name)); err != nil {
		return err
	}
	s.depth++
	return nil
}

// Attr is one element attribute, in document order.
type Attr struct {
	Name  string
	Value string
}

// StartElementAttrs feeds an element start event carrying attributes, so
// push-mode streams can drive @attr axes and predicates. Attribute order is
// preserved; duplicate names are the caller's responsibility (the pull-mode
// scanner rejects them at parse time).
func (s *Stream) StartElementAttrs(name string, attrs ...Attr) error {
	ev := xmlstream.Start(name)
	if len(attrs) > 0 {
		xa := make([]xmlstream.Attr, len(attrs))
		for i, a := range attrs {
			xa[i] = xmlstream.Attr{Name: a.Name, Value: a.Value}
		}
		ev.Attrs = xa
	}
	if err := s.run.Feed(ev); err != nil {
		return err
	}
	s.depth++
	return nil
}

// EndElement feeds an element end event; the name is tracked by the
// evaluator, which validates nesting. The depth bookkeeping changes only
// when the event is accepted, so a rejected Feed (e.g. on a closed run)
// leaves the stream's balance intact.
func (s *Stream) EndElement(name string) error {
	if s.depth <= 0 {
		return fmt.Errorf("spex: unbalanced EndElement(%q)", name)
	}
	if err := s.run.Feed(xmlstream.End(name)); err != nil {
		return err
	}
	s.depth--
	return nil
}

// Text feeds character data.
func (s *Stream) Text(data string) error {
	return s.run.Feed(xmlstream.Chars(data))
}

// Matches returns the number of answers delivered so far.
func (s *Stream) Matches() int64 { return s.run.Matches() }

// Stats returns the evaluation statistics so far: events and elements
// consumed, depth, transducer stack and formula maxima, and output-side
// buffering. It reads the network's own state, so call it from the feeding
// goroutine; for cross-goroutine polling use Snapshot with WithMetrics.
func (s *Stream) Stats() Stats { return s.run.Stats() }

// Snapshot returns a point-in-time view of the stream's metrics registry
// (attached with WithMetrics) plus a heap sample. It is safe to call from
// any goroutine while another feeds events. Without a registry the snapshot
// has Enabled == false.
func (s *Stream) Snapshot() Snapshot { return s.run.Snapshot() }

// Close ends the stream and validates the evaluation.
func (s *Stream) Close() error {
	if s.depth != 0 {
		return fmt.Errorf("spex: Close with %d unclosed element(s)", s.depth)
	}
	return s.run.Close()
}
