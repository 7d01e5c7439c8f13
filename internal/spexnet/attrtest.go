package spexnet

import (
	"repro/internal/cond"
	"repro/internal/rpeq"
)

// attrTestT is the attribute-test transducer AT[pred] backing the path
// self-filter rpeq.AttrTest: an armed start message passes the filter iff the
// element's attributes satisfy pred. The start message carries the complete
// attribute list, so — unlike the text test, which must wait for the end
// message — the decision falls at the very message that opens the candidate:
// the activation is re-emitted (or dropped) ahead of the start message, and
// downstream transducers never learn of filtered-out nodes.
//
// Memory: one pending formula; no stack. The test is constant-memory and
// adds nothing to the depth bound of Lemma V.2.
type attrTestT struct {
	pred rpeq.AttrExpr
	cfg  *netConfig

	pending *cond.Formula
	st      StackStats
}

func newAttrTest(pred rpeq.AttrExpr, cfg *netConfig) *attrTestT {
	return &attrTestT{pred: pred, cfg: cfg}
}

func (t *attrTestT) name() string { return "AT[" + t.pred.String() + "]" }

func (t *attrTestT) stackStats() StackStats { return t.st }

func (t *attrTestT) rewind() { t.pending, t.st = nil, StackStats{} }

func (t *attrTestT) feed(f *cond.Formula) {
	t.pending = t.cfg.or(t.pending, f)
	t.st.noteFormula(t.pending)
}

func (t *attrTestT) doc(r *docReg, out *port) wake {
	switch {
	case isStart(r.ev.Kind):
		if t.pending != nil {
			// The document root <$> carries no attributes, so a
			// top-level attribute filter never selects it.
			if t.pred.Eval(func(name string) (string, bool) { return r.ev.Attr(name) }) {
				out.emit(t.pending)
			}
			t.pending = nil
		}
	case isEnd(r.ev.Kind):
		t.pending = nil
	}
	return wakeIf(t.pending != nil)
}
