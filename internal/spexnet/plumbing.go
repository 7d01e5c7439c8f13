package spexnet

import "repro/internal/cond"

// splitT is the split transducer SP of §III.6: every received message is
// forwarded to both output tapes.
type splitT struct{ st StackStats }

func newSplit() *splitT { return &splitT{} }

func (t *splitT) name() string { return "SP" }

func (t *splitT) stackStats() StackStats { return t.st }

func (t *splitT) feed(_ int, m *Message, emit emitFn) {
	emit(0, *m)
	emit(1, *m)
}

func (t *splitT) doc(_ *docReg, emit emitFn) bool {
	emit(0, docMark)
	emit(1, docMark)
	return false
}

// joinT is the join transducer JO of §III.6: an AND-gate on document
// messages. Both branches of a split see the step's one document event, so
// the join marks it once — this is also how "the problem of removing
// duplicates for the union operation is solved by the join transducer".
// Activation and determination messages pass through, merged from both
// branches while keeping their position relative to the document event (an
// activation stays before the element it refers to; a trailing scope-exit
// finalization stays after the end message).
//
// The runner delivers what precedes the event from both ports (left branch
// first), then the event, then what follows it from both ports — the order
// the join owes its reader — so the join buffers nothing. Determination
// messages that reached it through both branches of the preceding split are
// forwarded once: the same duplicate elimination it performs for the
// document event.
type joinT struct {
	passDoc
	reg      *docReg
	seenDets []Message // determinations forwarded during step seenStep
	seenStep int64
	st       StackStats
}

func newJoin(reg *docReg) *joinT { return &joinT{reg: reg} }

func (t *joinT) name() string { return "JO" }

func (t *joinT) stackStats() StackStats { return t.st }

func (t *joinT) feed(_ int, m *Message, emit emitFn) {
	if m.Kind == MsgDet {
		if t.seenStep != t.reg.step {
			t.seenStep = t.reg.step
			t.seenDets = t.seenDets[:0]
		}
		for i := range t.seenDets {
			if sameDet(&t.seenDets[i], m) {
				return
			}
		}
		t.seenDets = append(t.seenDets, *m)
	}
	emit(0, *m)
}

// sameDet reports whether two determination messages are identical.
func sameDet(a, b *Message) bool {
	if a.Var != b.Var || a.Final != b.Final {
		return false
	}
	if (a.Witness == nil) != (b.Witness == nil) {
		return false
	}
	return a.Witness == nil || a.Witness.Key() == b.Witness.Key()
}

// unionT is the union transducer UN of §III.7: a connector that merges the
// activation messages arriving for one document message into a single
// activation carrying their disjunction (Fig. 10). Since the downstream
// transducers of this implementation also merge consecutive activations by
// disjunction, UN is semantically idempotent here, but it is kept so that
// compiled networks have the paper's exact shape and so that single
// activations reach the sink merged.
type unionT struct {
	cfg     *netConfig
	pending *cond.Formula
	st      StackStats
}

func newUnion(cfg *netConfig) *unionT { return &unionT{cfg: cfg} }

func (t *unionT) name() string { return "UN" }

func (t *unionT) stackStats() StackStats {
	s := t.st
	if t.pending != nil {
		s.Cur = 1
	}
	return s
}

func (t *unionT) feed(_ int, m *Message, emit emitFn) {
	if m.Kind == MsgActivation {
		t.pending = t.cfg.or(t.pending, m.Formula)
		t.st.noteFormula(t.pending)
		t.st.noteStack(1)
		return
	}
	emit(0, *m)
}

func (t *unionT) doc(_ *docReg, emit emitFn) bool {
	if t.pending != nil {
		emit(0, actMsg(t.pending))
		t.pending = nil
	}
	emit(0, docMark)
	return false
}
