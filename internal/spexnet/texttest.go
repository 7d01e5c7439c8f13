package spexnet

import (
	"strings"

	"repro/internal/cond"
	"repro/internal/rpeq"
)

// textCmpT is the text-test transducer TE(op,"v") backing the extended
// qualifier [path op "v"]: it receives the activations of the nodes
// selected by path, accumulates each such node's string value (all
// character data in its subtree), and at the node's end message re-emits
// the activation iff the comparison holds — from where the ordinary
// variable-filter/-determinant pair witnesses the qualifier instance.
// Because the test decides at the end message, the variable-creator's
// scope-exit finalization (which follows end messages: the condition store
// applies it after the step's sweep) still lands afterwards, preserving
// first-determination-wins.
//
// Memory: one text buffer per armed open node — bounded by the text of the
// candidate subtrees, the price of a value test on streams.
type textCmpT struct {
	op    rpeq.TextOp
	value string
	cfg   *netConfig

	pending *cond.Formula
	scopes  []*textScope // the armed open nodes, innermost last
	st      StackStats
}

type textScope struct {
	depth int
	f     *cond.Formula
	buf   strings.Builder
}

func newTextCmp(op rpeq.TextOp, value string, cfg *netConfig) *textCmpT {
	return &textCmpT{op: op, value: value, cfg: cfg}
}

func (t *textCmpT) name() string { return "TE(" + t.op.String() + ")" }

func (t *textCmpT) stackStats() StackStats {
	s := t.st
	s.Cur = len(t.scopes)
	return s
}

func (t *textCmpT) rewind() {
	clear(t.scopes)
	t.pending, t.scopes, t.st = nil, t.scopes[:0], StackStats{}
}

func (t *textCmpT) feed(f *cond.Formula) {
	t.pending = t.cfg.or(t.pending, f)
	t.st.noteFormula(t.pending)
}

// doc: character data anywhere below an armed node counts towards its string
// value, and the innermost armed node decides at its end message.
func (t *textCmpT) doc(r *docReg, out *port) wake {
	switch {
	case isStart(r.ev.Kind):
		if t.pending != nil {
			t.scopes = append(t.scopes, &textScope{depth: r.depth, f: t.pending})
			t.pending = nil
			t.st.noteStack(len(t.scopes))
		}
	case isEnd(r.ev.Kind):
		t.pending = nil
		if n := len(t.scopes); n > 0 && t.scopes[n-1].depth == r.depth {
			if s := t.scopes[n-1]; t.op.Holds(s.buf.String(), t.value) {
				out.emit(s.f)
			}
			t.scopes = t.scopes[:n-1]
		}
	default: // text: accumulate into every armed scope
		for _, s := range t.scopes {
			s.buf.WriteString(r.ev.Data)
		}
	}
	switch {
	case t.pending != nil:
		return wake{on: wakeAny}
	case len(t.scopes) == 0:
		return wake{}
	}
	return wake{on: wakeText | wakeEnd, depth: int32(t.scopes[len(t.scopes)-1].depth)}
}
