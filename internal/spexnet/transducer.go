package spexnet

import (
	"repro/internal/cond"
	"repro/internal/obs"
	"repro/internal/xmlstream"
)

// docReg is the document-stream register: the one copy of the step's event
// that every visited transducer reads. The document stream is not a message
// any more — nothing copies the event from tape to tape — so a transducer
// that receives no activation this step and did not ask for this event is
// simply not visited (Network.propagate).
type docReg struct {
	ev xmlstream.Event
	// depth is the level of the node ev opens or closes: 0 for the document
	// root <$>, 1 for the top element. For character data it is the level of
	// the enclosing node. Depth-tagged stack entries compare against it.
	depth int
	// index is the document-order number of the node a start event opens
	// (<$> is 0, elements count from 1).
	index int64
	// step counts document events, starting at 1 for <$>.
	step int64
}

// transducer is one node of a SPEX network. The runner guarantees the
// paper's discipline: one document event is in flight at a time, and within
// a step a visited transducer receives the activation messages that precede
// the event (feed), then the event itself (doc). Condition determinations do
// not pass through transducers: whoever originates one hands it to the
// network's condition store (detOrigin).
type transducer interface {
	// feed processes one activation message. Every transducer of the lowered
	// network has one input and one output (the connectors with more are
	// wiring, see lower.go), and none emits before it has seen the event.
	feed(f *cond.Formula)
	// doc processes the step's document event, emitting on out what precedes
	// it there, and returns the transducer's wake condition: the events it can
	// act on even if no activation arrives with them. The runner visits it
	// again only for an activation or for an event matching that condition, so
	// its stacks hold depth-tagged entries for armed levels only, never one
	// entry per open element.
	doc(r *docReg, out *port) wake
	name() string
	// stackStats returns the current and maximum depth-stack size and the
	// maximum condition-formula size handled, for the §V experiments.
	stackStats() StackStats
	// rewind returns the transducer to the state it was built in, keeping the
	// storage of its stacks (Network.Rewind).
	rewind()
}

// wake is a transducer's wake condition: which document events it has to be
// visited for although no activation arrives with them. The zero value asks
// for none (the transducer is unarmed). Only the innermost armed level
// matters: while the scope on top of a sparse stack is open, every event is
// inside it, and the events that concern the levels below come after its end.
type wake struct {
	on wakeSet
	// depth is the level of the innermost armed node: wakeChild asks for the
	// start of its children (depth+1), wakeEnd for its own end.
	depth int32
	// sym restricts wakeChild to one label symbol; 0 asks for any label.
	sym xmlstream.Sym
}

// wakeSet is the set of event classes a wake condition asks for.
type wakeSet uint8

const (
	wakeChild wakeSet = 1 << iota // start of a child of the node at depth
	wakeEnd                       // end of the node at depth
	wakeText                      // character data
	wakeAny                       // every event
)

// wakeIf asks for every event if armed, for none otherwise: the conservative
// condition of the transducers whose state is not tied to one open node.
func wakeIf(armed bool) wake {
	if armed {
		return wake{on: wakeAny}
	}
	return wake{}
}

// scopeWake is the wake condition of the child and closure transducers: the
// start of a child of the innermost scope carrying the label symbol (0 = any
// label), and that scope's end. A pending activation that no start or end
// event consumed (it arrived with character data) asks for everything.
func scopeWake(scopes []scope, sym xmlstream.Sym, pending bool) wake {
	switch {
	case pending:
		return wake{on: wakeAny}
	case len(scopes) == 0:
		return wake{}
	}
	return wake{on: wakeChild | wakeEnd, depth: int32(scopes[len(scopes)-1].depth), sym: sym}
}

// eventClass maps an event kind to the wake class it can satisfy; the
// document boundaries count as the start and end of the node at depth 0.
var eventClass = [8]wakeSet{
	xmlstream.StartDocument: wakeChild,
	xmlstream.EndDocument:   wakeEnd,
	xmlstream.StartElement:  wakeChild,
	xmlstream.EndElement:    wakeEnd,
	xmlstream.Text:          wakeText,
}

// wants reports whether an event of the given class, at the given depth and
// (for a start event) with the given label symbol, satisfies the condition.
func (k wake) wants(class wakeSet, depth int32, sym xmlstream.Sym) bool {
	if k.on&class == 0 {
		return k.on&wakeAny != 0
	}
	switch class {
	case wakeChild:
		return depth == k.depth+1 && (k.sym == 0 || k.sym == sym)
	case wakeEnd:
		return depth == k.depth
	}
	return true
}

// scope is one entry of a depth-tagged sparse stack: the formula attached to
// the open node at the given depth. Levels carrying no formula have no entry
// (they were the nil entries of a one-per-open-node stack), which bounds the
// stack by the armed levels — a tighter statement of Lemma V.2's depth bound.
type scope struct {
	depth int
	f     *cond.Formula
}

// varScope is the sparse-stack entry of the variable-allocating transducers:
// the condition variable whose scope is the open node at the given depth.
type varScope struct {
	depth int
	v     cond.VarID
}

// StackStats reports per-transducer resource usage.
type StackStats struct {
	Cur        int // current depth/condition stack entries
	MaxStack   int // maximum depth/condition stack entries
	MaxFormula int // maximum formula size σ seen
}

func (s *StackStats) noteStack(n int) {
	if n > s.MaxStack {
		s.MaxStack = n
	}
}

func (s *StackStats) noteFormula(f *cond.Formula) {
	if f != nil && f.Size() > s.MaxFormula {
		s.MaxFormula = f.Size()
	}
}

// or combines activation formulas by disjunction; either may be nil (none).
func (n *netConfig) or(a, b *cond.Formula) *cond.Formula {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	f := n.pool.Or(a, b)
	if n.gov != nil {
		n.checkFormula(f)
	}
	return f
}

// and combines formulas by conjunction.
func (n *netConfig) and(a, b *cond.Formula) *cond.Formula {
	f := n.pool.And(a, b)
	if n.gov != nil {
		n.checkFormula(f)
	}
	return f
}

// netConfig carries evaluation-time options shared by all transducers of a
// network instance.
type netConfig struct {
	// pool allocates the network's condition variables and interns its
	// formulas: every formula on a tape, a stack or a candidate is its node.
	pool *cond.Pool
	// retainVars disables condition-variable retirement and id reuse.
	// The core constructs guarantee that nothing mentions a variable
	// after its scope-exit finalization, which lets the condition store drop
	// resolution records and the pool recycle ids (bounded memory on
	// unbounded streams). The following/preceding extension breaks that
	// guarantee — a following-scope formula outlives the qualifier scopes
	// it mentions — so networks containing those axes retain records for
	// the whole evaluation.
	retainVars bool
	// symtab is the network's symbol table: label tests are compiled into
	// symbols of this table, and Step resolves events arriving with a zero
	// Sym against it. Always non-nil unless noInterning is set.
	symtab *xmlstream.Symtab
	// noInterning restores the string-matching pipeline of the original
	// engine (the interning ablation's baseline): labels compare as strings
	// and the count-mode output fast path is disabled.
	noInterning bool
	// gov is the resource-governor runtime; nil when no caps are
	// configured, which is the zero-overhead default (every hook is a
	// single pointer test).
	gov *govern
	// detSinks counts the network's sinks whose answer has become fixed
	// (answer limit reached). The config is shared by every sink of the
	// network, so this is the determination signal the network polls:
	// detSinks == len(outs) means nothing in the stream's suffix can
	// change the reported answers.
	detSinks int
	// sinkMetrics receives the candidate-lifecycle histograms (decision
	// latency, candidate lifetime, stream latency) from every sink of the
	// network. Candidate events are per-sink — not per-event-per-network —
	// so one registry can serve many member networks of a multi-query
	// engine without multiplying counts. Nil disables the histograms
	// (a single pointer test per candidate transition).
	sinkMetrics *obs.Metrics
	// traceID is the stream-scoped trace identifier stamped on every
	// obs.TraceEvent the network's tracer observes; empty when unset.
	traceID string
}

// isStart reports whether an event of kind k opens a tree node (element or
// document root).
func isStart(k xmlstream.Kind) bool {
	return k == xmlstream.StartElement || k == xmlstream.StartDocument
}

// isEnd reports whether an event of kind k closes a tree node.
func isEnd(k xmlstream.Kind) bool {
	return k == xmlstream.EndElement || k == xmlstream.EndDocument
}

// labelTest is a compiled label guard: the per-event test every CH, CL, FO
// and PR transducer runs. The wildcard is decided at build time; a concrete
// label compiles to the symbol it interns to in the network's table, so the
// steady-state test is one integer comparison. sym stays zero only under the
// noInterning ablation, which falls back to the original string comparison.
type labelTest struct {
	label string
	sym   xmlstream.Sym
	wild  bool
}

// compileLabelTest interns the label against the network's symbol table.
func (n *netConfig) compileLabelTest(label string) labelTest {
	t := labelTest{label: label, wild: label == "_"}
	if !t.wild && n.symtab != nil && !n.noInterning {
		t.sym = n.symtab.Intern(label)
	}
	return t
}

// matches reports whether a start event is an element matching the test (the
// wildcard matches every element, but never the document root <$>). Events
// reaching a transducer are already resolved against the network's table
// (Network.Step), so the symbol comparison is exact.
func (t *labelTest) matches(ev *xmlstream.Event) bool {
	if ev.Kind != xmlstream.StartElement {
		return false
	}
	if t.wild {
		return true
	}
	if t.sym != 0 {
		return ev.Sym == t.sym
	}
	return t.label == ev.Name
}
