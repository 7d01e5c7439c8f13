package spexnet

import "repro/internal/cond"

// splitT is the split transducer SP of §III.6: every received activation is
// forwarded to both output tapes.
type splitT struct {
	passDoc
	st StackStats
}

func newSplit() *splitT { return &splitT{} }

func (t *splitT) name() string { return "SP" }

func (t *splitT) stackStats() StackStats { return t.st }

func (t *splitT) feed(_ int, f *cond.Formula, emit emitFn) {
	emit(0, f)
	emit(1, f)
}

// joinT is the join transducer JO of §III.6: an AND-gate on document
// messages. Both branches of a split see the step's one document event in the
// register, so there is nothing left to gate — this is also how "the problem
// of removing duplicates for the union operation is solved by the join
// transducer". What remains is the merge: the activations of both branches
// pass through, left branch first, which is the order the runner delivers the
// ports in; the join buffers nothing.
type joinT struct {
	passDoc
	st StackStats
}

func newJoin() *joinT { return &joinT{} }

func (t *joinT) name() string { return "JO" }

func (t *joinT) stackStats() StackStats { return t.st }

func (t *joinT) feed(_ int, f *cond.Formula, emit emitFn) { emit(0, f) }

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

func (t *unionT) feed(_ int, f *cond.Formula, _ emitFn) {
	t.pending = t.cfg.or(t.pending, f)
	t.st.noteFormula(t.pending)
	t.st.noteStack(1)
}

func (t *unionT) doc(_ *docReg, emit emitFn) wake {
	if t.pending != nil {
		emit(0, t.pending)
		t.pending = nil
	}
	return wake{}
}
