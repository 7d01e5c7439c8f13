package spexnet

import "repro/internal/cond"

// childT is the child transducer CH(l) of §III.3: it selects start messages
// with label l that are direct children of an activating document message.
//
// The paper specifies CH via a depth stack of {m, 1} marks and a condition
// stack of formulas pushed and popped in lockstep (Fig. 2). This
// implementation fuses the two stacks into one, exactly the fusion Theorem
// IV.2's proof describes, and keeps it sparse: an entry holds the condition
// formula under which children of the open node at its depth are to be
// matched, and levels that are not a match scope (the paper's 1 mark) have no
// entry at all.
type childT struct {
	label labelTest
	cfg   *netConfig

	// pending accumulates activation formulas received since the last
	// document message; they arm the children of the next start message.
	// Consecutive activations (possible after a join) merge by
	// disjunction, which is what Fig. 2's activated2 transitions achieve
	// with a second condition-stack entry.
	pending *cond.Formula
	// scopes holds the match formula for children of each armed open node,
	// innermost last. Bounded by the stream depth d.
	scopes []scope

	st StackStats
}

func newChild(label string, cfg *netConfig) *childT {
	return &childT{label: cfg.compileLabelTest(label), cfg: cfg}
}

func (t *childT) name() string { return "CH(" + t.label.label + ")" }

func (t *childT) stackStats() StackStats {
	s := t.st
	s.Cur = len(t.scopes)
	return s
}

func (t *childT) rewind() { t.pending, t.scopes, t.st = nil, t.scopes[:0], StackStats{} }

func (t *childT) feed(f *cond.Formula) {
	t.pending = t.cfg.or(t.pending, f)
	t.st.noteFormula(t.pending)
}

// doc: while a scope is armed, CH can act on two events only — the start of a
// child of the innermost armed node carrying its label, and that node's end.
func (t *childT) doc(r *docReg, out *port) wake {
	switch {
	case isStart(r.ev.Kind):
		// Match: is the parent level an armed scope and the label right?
		if n := len(t.scopes); n > 0 && t.scopes[n-1].depth == r.depth-1 && t.label.matches(&r.ev) {
			out.emit(t.scopes[n-1].f)
		}
		// Arm the children of this node if an activation preceded it.
		if t.pending != nil {
			t.scopes = append(t.scopes, scope{r.depth, t.pending})
			t.pending = nil
			t.st.noteStack(len(t.scopes))
		}
	case isEnd(r.ev.Kind):
		t.pending = nil
		if n := len(t.scopes); n > 0 && t.scopes[n-1].depth == r.depth {
			t.scopes = t.scopes[:n-1]
		}
	}
	return scopeWake(t.scopes, t.label.sym, t.pending != nil)
}
