package spexnet

import "repro/internal/cond"

// closureT is the closure transducer CL(l) of §III.4, implementing the
// positive closure l+: starting from the children of the activating
// document message, it selects chains of l-labeled elements — an l child, an
// l child of an l match, and so on. A non-matching element suspends the
// scope for its subtree (the paper's e mark, Fig. 3 transition 8) and the
// scope resumes when that element closes (transition 4).
//
// Scopes nest: an activation received while matching opens a nested scope
// whose formula is the disjunction of the received and the enclosing
// formulas (Fig. 3 transition 12), normalized so each condition variable
// occurs at most once.
type closureT struct {
	label labelTest
	cfg   *netConfig

	pending *cond.Formula
	// scopes holds, for each open node in scope, the formula under which
	// its l-labeled children match, innermost last; nodes out of scope (the
	// paper's 1/e marks) have no entry.
	scopes []scope

	st StackStats
}

func newClosure(label string, cfg *netConfig) *closureT {
	return &closureT{label: cfg.compileLabelTest(label), cfg: cfg}
}

func (t *closureT) name() string { return "CL(" + t.label.label + ")" }

func (t *closureT) stackStats() StackStats {
	s := t.st
	s.Cur = len(t.scopes)
	return s
}

func (t *closureT) rewind() { t.pending, t.scopes, t.st = nil, t.scopes[:0], StackStats{} }

func (t *closureT) feed(f *cond.Formula) {
	t.pending = t.cfg.or(t.pending, f)
	t.st.noteFormula(t.pending)
}

// doc: like CH, CL acts only on the start of a labelled child of its innermost
// scope (a non-matching child suspends the scope for its whole subtree, which
// pushes nothing) and on that scope's end.
func (t *closureT) doc(r *docReg, out *port) wake {
	switch {
	case isStart(r.ev.Kind):
		// The scope continues below this node only along l-chains (a
		// match), and a pending activation opens a (possibly nested) scope
		// over this node's subtree.
		var child *cond.Formula
		if n := len(t.scopes); n > 0 && t.scopes[n-1].depth == r.depth-1 && t.label.matches(&r.ev) {
			child = t.scopes[n-1].f
			out.emit(child)
		}
		if t.pending != nil {
			child = t.cfg.or(child, t.pending)
			t.pending = nil
		}
		if child != nil {
			t.st.noteFormula(child)
			t.scopes = append(t.scopes, scope{r.depth, child})
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
