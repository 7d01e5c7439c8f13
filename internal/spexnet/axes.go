package spexnet

import (
	"repro/internal/cond"
	"repro/internal/xmlstream"
)

// followingT implements the following axis (§I: the prototype "supports
// also other XPath navigational capabilities, i.e. following and
// preceding"): for a context node activated with formula f, every element
// whose start message comes after the context's end message matches with
// formula f. Contexts merge by disjunction; the transducer's state is one
// formula per open node (is it an awaited context?) plus the merged formula
// of contexts already closed — bounded by the depth, like the core
// transducers.
type followingT struct {
	test labelTest
	cfg  *netConfig

	pending *cond.Formula
	// armed holds the open contexts, innermost last: nodes whose
	// following-scope opens at their end message.
	armed  []scope
	active *cond.Formula
	st     StackStats
}

func newFollowing(test string, cfg *netConfig) *followingT {
	return &followingT{test: cfg.compileLabelTest(test), cfg: cfg}
}

func (t *followingT) name() string { return "FO(" + t.test.label + ")" }

func (t *followingT) stackStats() StackStats {
	s := t.st
	s.Cur = len(t.armed)
	return s
}

func (t *followingT) rewind() {
	t.pending, t.active, t.armed, t.st = nil, nil, t.armed[:0], StackStats{}
}

func (t *followingT) feed(f *cond.Formula) {
	t.pending = t.cfg.or(t.pending, f)
	t.st.noteFormula(t.pending)
}

// doc: once a context has closed every later element start is a potential
// match, so the transducer asks for every event while it holds anything.
func (t *followingT) doc(r *docReg, out *port) wake {
	switch {
	case isStart(r.ev.Kind):
		if t.active != nil && t.test.matches(&r.ev) {
			out.emit(t.active)
		}
		if t.pending != nil {
			t.armed = append(t.armed, scope{r.depth, t.pending})
			t.pending = nil
			t.st.noteStack(len(t.armed))
		}
	case isEnd(r.ev.Kind):
		t.pending = nil
		if n := len(t.armed); n > 0 && t.armed[n-1].depth == r.depth {
			t.active = t.cfg.or(t.active, t.armed[n-1].f)
			t.st.noteFormula(t.active)
			t.armed = t.armed[:n-1]
		}
	}
	return wakeIf(t.active != nil || len(t.armed) > 0 || t.pending != nil)
}

// precedingT implements the preceding axis: elements whose end message
// comes before a context's start message. Answers necessarily precede
// their justification in the stream, so the transducer emits every
// test-matching element as a conditional answer with a fresh condition
// variable; a later context start witnesses all candidates already closed
// (with the context's own formula as witness), and the end of the stream
// finalizes whatever was never witnessed — the same future-condition
// machinery qualifiers use. Unwitnessed closed candidates must be retained
// until a context appears, so memory is bounded by the number of candidate
// answers between contexts (the output transducer holds them as
// undetermined candidates anyway). Every test-matching element is a
// candidate whether or not a context has been seen, so the transducer is
// armed for the whole stream.
type precedingT struct {
	detOrigin
	test labelTest
	q    cond.QualID
	cfg  *netConfig

	pendingCtx *cond.Formula
	// open holds the candidate variables of the open test-matching nodes,
	// innermost last.
	open []varScope
	// closed holds candidates whose subtree has ended and whose
	// witnessing context has not arrived (or arrived only conditionally).
	closed []cond.VarID
	st     StackStats
}

func newPreceding(test string, q cond.QualID, cfg *netConfig, store *condStore) *precedingT {
	t := &precedingT{test: cfg.compileLabelTest(test), q: q, cfg: cfg}
	t.detOrigin = detOrigin{store: store, node: t.name()}
	return t
}

func (t *precedingT) name() string { return "PR(" + t.test.label + ")" }

func (t *precedingT) stackStats() StackStats {
	s := t.st
	s.Cur = len(t.open) + len(t.closed)
	return s
}

func (t *precedingT) rewind() {
	t.pendingCtx, t.open, t.closed, t.st, t.n = nil, t.open[:0], t.closed[:0], StackStats{}, 0
}

func (t *precedingT) feed(f *cond.Formula) {
	t.pendingCtx = t.cfg.or(t.pendingCtx, f)
	t.st.noteFormula(t.pendingCtx)
}

// doc: every determination the preceding axis originates precedes the event it
// is found at (a context's start, the end of the document), so all of them
// take effect at once.
func (t *precedingT) doc(r *docReg, out *port) wake {
	switch {
	case isStart(r.ev.Kind):
		if t.pendingCtx != nil {
			t.creditClosed(t.pendingCtx)
			t.pendingCtx = nil
		}
		if t.test.matches(&r.ev) {
			v := t.cfg.pool.Fresh(t.q)
			out.emit(t.cfg.pool.Var(v))
			t.open = append(t.open, varScope{r.depth, v})
			t.st.noteStack(len(t.open) + len(t.closed))
		}
	case isEnd(r.ev.Kind):
		t.pendingCtx = nil
		if r.ev.Kind == xmlstream.EndDocument {
			// No context can follow: finalize the stragglers. (No
			// Release: networks with axes retain ids, see netConfig.)
			for _, v := range t.closed {
				t.determine(v, nil)
			}
			t.closed = t.closed[:0]
		}
		if n := len(t.open); n > 0 && t.open[n-1].depth == r.depth {
			t.closed = append(t.closed, t.open[n-1].v)
			t.st.noteStack(len(t.open) + len(t.closed))
			t.open = t.open[:n-1]
		}
	}
	return wake{on: wakeAny}
}

// creditClosed witnesses every closed candidate with the context formula f.
// Candidates witnessed unconditionally are fully determined and released;
// conditionally witnessed ones stay for later contexts.
func (t *precedingT) creditClosed(f *cond.Formula) {
	if f.IsTrue() {
		for _, v := range t.closed {
			t.determine(v, f)
			t.determine(v, nil)
		}
		t.closed = t.closed[:0]
		return
	}
	for _, v := range t.closed {
		t.determine(v, f)
	}
}
