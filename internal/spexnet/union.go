package spexnet

import "repro/internal/cond"

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

func (t *unionT) rewind() { t.pending, t.st = nil, StackStats{} }

func (t *unionT) feed(f *cond.Formula) {
	t.pending = t.cfg.or(t.pending, f)
	t.st.noteFormula(t.pending)
	t.st.noteStack(1)
}

func (t *unionT) doc(_ *docReg, out *port) wake {
	if t.pending != nil {
		out.emit(t.pending)
		t.pending = nil
	}
	return wake{}
}
