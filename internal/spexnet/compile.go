package spexnet

import (
	"fmt"

	"repro/internal/cond"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/rpeq"
	"repro/internal/xmlstream"
)

// Options configure a network build.
type Options struct {
	// Mode selects what the output transducer reports (default ModeCount).
	Mode ResultMode
	// Sink receives the answers (ModeNodes, ModeSerialize).
	Sink Sink
	// StreamSink receives answers event by event (ModeStream).
	StreamSink StreamSink
	// Tracer, if set, observes every activation a transducer emits, every
	// determination — once where it originates and once at each sink it
	// changes — and the document event at every transducer it visits, in the
	// paper's notation: the transition traces of Figs. 4, 5 and 13 as a
	// first-class feature (cmd/spex -trace). Steps count document-stream
	// events, starting at 1 for <$>.
	Tracer obs.Tracer
	// Metrics, if set, attaches live instrumentation: per-transducer
	// message counts, stack and formula watermarks, and sink-side gauges,
	// all readable from other goroutines mid-stream. When nil the network
	// runs an uninstrumented path with no per-event overhead.
	Metrics *obs.Metrics
	// Symtab is the symbol table label tests compile against; nil builds a
	// private table. Sharing one table between the network and its event
	// producer (scanner, multi-query feeder) lets events arrive
	// pre-resolved, so the per-event label tests are pure integer
	// comparisons and the network never touches the interner.
	Symtab *xmlstream.Symtab
	// NoInterning restores the string-matching pipeline (the interning
	// ablation's baseline): no symbol table, string label comparisons, and
	// the count-mode output fast path disabled.
	NoInterning bool
	// Governor, when it carries any cap, attaches the resource governor:
	// condition-formula size, candidate population, buffered content,
	// per-step messages, live condition variables and document depth are
	// accounted against its limits and its policy applies when one trips.
	// Nil (or all-zero limits) runs ungoverned with no per-event overhead.
	Governor *governor.Config
	// GovernorMetrics receives the governor's trip counters without
	// enabling full per-event instrumentation — a multi-query engine binds
	// one registry to many member networks this way (trip counters are
	// rare, atomic adds; full instrumentation on N networks would count
	// every stream event N times). Nil falls back to Metrics.
	GovernorMetrics *obs.Metrics
	// SinkMetrics receives the candidate-lifecycle histograms — decision
	// latency and candidate lifetime in events, stream latency in
	// nanoseconds — from every sink. Like GovernorMetrics, sink events are
	// per-candidate rather than per-event, so a multi-query engine may
	// bind one registry to all member networks. Nil falls back to Metrics.
	SinkMetrics *obs.Metrics
	// TraceID is the stream-scoped trace identifier of this evaluation: it
	// is stamped on every trace record the Tracer observes, so one tracer
	// (or log pipeline) serving many streams can attribute each record to
	// its stream or ingest request.
	TraceID string
	// Limit, when positive, caps the answer count: the evaluation asks for
	// the first Limit answers in document order, and the sink's answer is
	// determined — state released, stream disconnectable — the moment the
	// Limit-th answer has been delivered. Zero evaluates the whole stream.
	Limit int64
}

// Spec is one query of a multi-query network: its expression and its sink.
type Spec struct {
	Expr       rpeq.Node
	Mode       ResultMode
	Sink       Sink
	StreamSink StreamSink
	// Name labels the query in governor errors and shed reports, so a
	// multi-query caller can tell which subscription tripped a cap.
	Name string
	// Limit, when positive, is this query's answer budget (see
	// Options.Limit); per-query in a multi-query network.
	Limit int64
}

// Build translates an rpeq expression into a SPEX network following the
// denotational semantics C of §III.9 (Fig. 11). The translation is linear in
// the expression size (Lemma V.1): each construct contributes a constant
// number of transducers. The returned network holds evaluation state and
// evaluates one stream at a time (Network.Rewind between them).
func Build(expr rpeq.Node, opts Options) (*Network, error) {
	return BuildSet([]Spec{{Expr: expr, Mode: opts.Mode, Sink: opts.Sink, StreamSink: opts.StreamSink, Limit: opts.Limit}}, opts)
}

// BuildSet translates several queries into ONE network with one sink per
// query — the multi-sink extension §III.2 sketches ("allowing multiple
// sinks, i.e. evaluating several queries") and the multi-query optimization
// of §IX: structurally identical subexpressions evaluated from the same
// tape are compiled once and their output tape is shared (an implicit
// split), so a workload of queries with common prefixes — the
// XFilter/YFilter scenario of §VIII — costs the union of the distinct
// subexpressions, not the sum of the queries.
func BuildSet(specs []Spec, opts Options) (*Network, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("spexnet: no queries")
	}
	retain := false
	for _, spec := range specs {
		if rpeq.HasExtensionAxes(spec.Expr) {
			retain = true
		}
	}
	symtab := opts.Symtab
	if symtab == nil && !opts.NoInterning {
		symtab = xmlstream.NewSymtab()
	}
	gm := opts.GovernorMetrics
	if gm == nil {
		gm = opts.Metrics
	}
	sm := opts.SinkMetrics
	if sm == nil {
		sm = opts.Metrics
	}
	n := &Network{
		cfg: netConfig{
			pool:        cond.NewPool(),
			retainVars:  retain,
			symtab:      symtab,
			noInterning: opts.NoInterning,
			gov:         newGovern(opts.Governor, gm),
			sinkMetrics: sm,
			traceID:     opts.TraceID,
		},
		metrics: opts.Metrics,
		tracer:  opts.Tracer,
	}
	n.store = newCondStore(&n.cfg)
	if tracer := opts.Tracer; tracer != nil {
		n.store.trace = func(node string, d det) {
			tracer.Trace(obs.TraceEvent{Step: n.reg.step, Node: node, Kind: obs.KindDetermination, Msg: d.String(), TraceID: n.cfg.traceID})
		}
	}
	n.source = port{net: n, node: -1}
	b := &builder{net: n, memo: make(map[memoKey]memoEntry)}
	source := b.newWire(-1)
	for _, spec := range specs {
		// A terminal attribute step is the sink's business (see
		// outputT.attr): compile the element path and tell the sink which
		// attribute of its matches to select.
		expr, attr := splitAttrStep(spec.Expr)
		final, _, err := b.compile(expr, source)
		if err != nil {
			return nil, err
		}
		if spec.Mode == ModeStream && spec.StreamSink == nil {
			return nil, fmt.Errorf("spexnet: ModeStream requires a StreamSink")
		}
		out := newOutput(spec.Mode, spec.Sink, &n.cfg, &n.reg)
		out.ssink = spec.StreamSink
		out.sub = spec.Name
		out.limit = spec.Limit
		if attr != "" {
			out.attr, out.attrLabel = attr, "@"+attr
		}
		b.addNode(out, final)
		n.store.addSink(out)
		n.outs = append(n.outs, out)
	}
	// When every query carries an answer limit, the whole network's answer
	// can become fixed mid-stream; Run then stops reading early.
	n.allLimited = true
	for _, spec := range specs {
		if spec.Limit <= 0 {
			n.allLimited = false
			break
		}
	}
	b.finish(opts.Metrics)
	return n, nil
}

// splitAttrStep peels a terminal attribute step off a query: it returns the
// element path leading to it and the attribute name, or the expression
// unchanged and "" when the query selects elements. The step is only valid as
// the last step of the whole query (rpeq validates this), which in the AST is
// the end of the right spine of the top-level concatenation.
func splitAttrStep(expr rpeq.Node) (rpeq.Node, string) {
	switch n := expr.(type) {
	case *rpeq.AttrStep:
		return &rpeq.Empty{}, n.Name
	case *rpeq.Concat:
		right, attr := splitAttrStep(n.Right)
		if attr == "" {
			return expr, ""
		}
		if _, empty := right.(*rpeq.Empty); empty {
			return n.Left, attr
		}
		return &rpeq.Concat{Left: n.Left, Right: right}, attr
	}
	return expr, ""
}

// memoKey identifies a compiled subexpression: its canonical form and the
// tape it reads.
type memoKey struct {
	in   wireID
	expr string
}

// memoEntry caches a compiled subexpression: its output tape and the
// qualifier ids declared within it (needed by enclosing qualifiers).
type memoEntry struct {
	out   wireID
	quals []cond.QualID
}

// compile implements C with hash-consing: it extends the network with the
// transducers for expr reading tape in — unless a structurally identical
// expression was already compiled from the same tape, in which case its
// output tape is reused. It returns the expression's output tape and the
// qualifier ids declared inside it.
func (b *builder) compile(expr rpeq.Node, in wireID) (wireID, []cond.QualID, error) {
	key := memoKey{in, rpeq.Canonical(expr)}
	if e, ok := b.memo[key]; ok {
		return e.out, e.quals, nil
	}
	out, quals, err := b.compileNew(expr, in)
	if err != nil {
		return 0, nil, err
	}
	b.memo[key] = memoEntry{out: out, quals: quals}
	return out, quals, nil
}

func (b *builder) compileNew(expr rpeq.Node, in wireID) (wireID, []cond.QualID, error) {
	switch n := expr.(type) {
	case *rpeq.Empty:
		// ε adds no transducer: the context passes through unchanged.
		return in, nil, nil

	case *rpeq.Label:
		return b.addNode(newChild(n.Name, &b.net.cfg), in), nil, nil

	case *rpeq.Plus:
		return b.addNode(newClosure(n.Label.Name, &b.net.cfg), in), nil, nil

	case *rpeq.Star:
		// C[label*] = SP; C[label+] on one branch; JO (Fig. 11).
		pass, branch := b.split(in)
		plus, quals, err := b.compile(&rpeq.Plus{Label: n.Label}, branch)
		if err != nil {
			return 0, nil, err
		}
		return b.join(pass, plus), quals, nil

	case *rpeq.Optional:
		pass, branch := b.split(in)
		inner, quals, err := b.compile(n.Expr, branch)
		if err != nil {
			return 0, nil, err
		}
		return b.join(pass, inner), quals, nil

	case *rpeq.Concat:
		mid, lq, err := b.compile(n.Left, in)
		if err != nil {
			return 0, nil, err
		}
		out, rq, err := b.compile(n.Right, mid)
		if err != nil {
			return 0, nil, err
		}
		return out, append(lq, rq...), nil

	case *rpeq.Union:
		lin, rin := b.split(in)
		left, lq, err := b.compile(n.Left, lin)
		if err != nil {
			return 0, nil, err
		}
		right, rq, err := b.compile(n.Right, rin)
		if err != nil {
			return 0, nil, err
		}
		un := b.addNode(newUnion(&b.net.cfg), b.join(left, right))
		return un, append(lq, rq...), nil

	case *rpeq.Qualifier:
		// Earliest-decision static analysis: a nullable condition — ε in
		// its language, e.g. [b*] or [c?] — is witnessed by the candidate
		// node itself at the very event that opens it, so base[cond] ≡ base.
		// Compiling the condition away resolves such candidates at birth
		// instead of buffering them to scope close: no variable-creator, no
		// condition sub-network, no formula traffic.
		if rpeq.Nullable(n.Cond) {
			return b.compile(n.Base, in)
		}
		if cn, ok := n.Cond.(*rpeq.CondNot); ok {
			return b.compileNegQualifier(n.Base, cn, in)
		}
		base, bq, err := b.compile(n.Base, in)
		if err != nil {
			return 0, nil, err
		}
		// The qualifier id is declared before its condition compiles
		// (the variable-creator precedes the condition sub-network on
		// the tape); the nesting relation is recorded afterwards.
		q := b.net.cfg.pool.DeclareQualifier(nil)
		vc := b.addNode(newVC(q, false, &b.net.cfg, b.net.store), base)
		out, branch := b.split(vc)
		inner, cq, err := b.compile(n.Cond, branch)
		if err != nil {
			return 0, nil, err
		}
		b.net.cfg.pool.SetNested(q, cq)
		// VF(q+) and VD close the condition branch. VD consumes what reaches
		// it, so the join behind it merges the pass-through branch with a
		// tape nothing is ever written to: out is the qualifier's output.
		b.addDeterminant(newDeterminant(q, false, &b.net.cfg, b.net.store), inner)
		quals := append(bq, cq...)
		return out, append(quals, q), nil

	case *rpeq.TextTest:
		// The text-test transducer gates the matches of the path on their
		// string value: activations pass at the end message iff the
		// comparison holds.
		mid, quals, err := b.compile(n.Path, in)
		if err != nil {
			return 0, nil, err
		}
		out := b.addNode(newTextCmp(n.Op, n.Value, &b.net.cfg), mid)
		return out, quals, nil

	case *rpeq.AttrTest:
		// An attribute self-filter is one constant-memory transducer: the
		// decision falls at the start message, where the attribute list is
		// complete — no variables, no sub-network.
		return b.addNode(newAttrTest(n.Pred, &b.net.cfg), in), nil, nil

	case *rpeq.AttrStep:
		// BuildSet peels the terminal attribute step off before compiling;
		// one that is still here sits where no element stream can follow it.
		return 0, nil, fmt.Errorf("spexnet: attribute step @%s must be the final step of the query", n.Name)

	case *rpeq.CondNot:
		// A bare negated condition (a disjunct of an 'or' lowering) is the
		// self-qualifier ε[not(expr)]: it selects the context node itself iff
		// the negated condition matches nothing in its scope.
		return b.compileNegQualifier(&rpeq.Empty{}, n, in)

	case *rpeq.Following:
		return b.addNode(newFollowing(n.Test, &b.net.cfg), in), nil, nil

	case *rpeq.Preceding:
		// Preceding answers precede their justification, so the step
		// allocates condition variables like a qualifier does; declare a
		// qualifier id owning them so variable filters of enclosing
		// qualifiers keep them.
		q := b.net.cfg.pool.DeclareQualifier(nil)
		out := b.addNode(newPreceding(n.Test, q, &b.net.cfg, b.net.store), in)
		return out, []cond.QualID{q}, nil

	default:
		return 0, nil, fmt.Errorf("spexnet: unknown expression node %T", expr)
	}
}

// compileNegQualifier translates base[not(cond)]. The topology mirrors the
// positive qualifier's — variable-creator, split, condition sub-network,
// variable filter, determinant, join — with the polarity of the witness
// protocol flipped: the negated variable-creator presumes each instance
// satisfied and announces {c,true} at scope exit, while the negated
// determinant kills {c,false} any instance whose scope cond selects
// into. The kill takes effect ahead of the inner match's document message,
// so rejected candidates drop as early as the positive construction accepts
// them; candidates whose condition is an attribute test inside not(...) never
// even reach here — those fold into the attribute formula as AttrNot.
func (b *builder) compileNegQualifier(baseExpr rpeq.Node, cn *rpeq.CondNot, in wireID) (wireID, []cond.QualID, error) {
	base, bq, err := b.compile(baseExpr, in)
	if err != nil {
		return 0, nil, err
	}
	if rpeq.Nullable(cn.Expr) {
		// cond is nullable: the candidate itself witnesses it at the event
		// opening its scope, so not(cond) is statically false. Earliest
		// decision: drop base's selections without allocating variables.
		out := b.addNode(newDropAct(), base)
		return out, bq, nil
	}
	q := b.net.cfg.pool.DeclareQualifier(nil)
	vc := b.addNode(newVC(q, true, &b.net.cfg, b.net.store), base)
	out, branch := b.split(vc)
	inner, cq, err := b.compile(cn.Expr, branch)
	if err != nil {
		return 0, nil, err
	}
	if len(cq) > 0 {
		// The front ends reject qualifiers under not(...); anything that
		// still declares condition variables (a nested qualifier or a
		// preceding step) would make the unconditional kill unsound.
		return 0, nil, fmt.Errorf("spexnet: cannot negate %s: the condition declares condition variables", cn.Expr)
	}
	b.net.cfg.pool.SetNested(q, cq)
	b.addDeterminant(newDeterminant(q, true, &b.net.cfg, b.net.store), inner)
	return out, append(bq, q), nil
}
