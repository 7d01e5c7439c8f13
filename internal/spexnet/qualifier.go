package spexnet

import "repro/internal/cond"

// vcT is the variable-creator transducer VC(q) of §III.5.1. For each
// qualifier instance — each activation reaching it — it allocates a fresh
// condition variable c, forwards the activation as [f ∧ c], and when the
// instance's scope (the subtree of the activated element) closes it emits
// the finalization message, the paper's {c,false}: if no witness satisfied c
// by then, c is false.
type vcT struct {
	q    cond.QualID
	pool *cond.Pool
	cfg  *netConfig
	// neg marks the variable-creator of a negated qualifier base[not(cond)]:
	// its instances are innocent until proven guilty. Surviving to scope exit
	// with no inner match means not(cond) holds, so the scope-exit messages
	// are {c,true} followed by the finalization, instead of the positive
	// construction's bare {c,false} finalization. An inner match kills the
	// instance earlier through the negated determinant (nvdT); the output
	// transducer's first-determination-wins rule lets that kill stand.
	neg bool

	pending *cond.Formula
	// vars holds the live instances: the variable whose scope is the open
	// node at each entry's depth, innermost last.
	vars []varScope

	st StackStats
}

func newVC(q cond.QualID, pool *cond.Pool, cfg *netConfig) *vcT {
	return &vcT{q: q, pool: pool, cfg: cfg}
}

// newNegVC is the variable-creator of a negated qualifier (see vcT.neg).
func newNegVC(q cond.QualID, pool *cond.Pool, cfg *netConfig) *vcT {
	return &vcT{q: q, pool: pool, cfg: cfg, neg: true}
}

func (t *vcT) name() string {
	if t.neg {
		return "VC(!q)"
	}
	return "VC(q)"
}

func (t *vcT) stackStats() StackStats {
	s := t.st
	s.Cur = len(t.vars)
	return s
}

func (t *vcT) feed(_ int, m *Message, emit emitFn) {
	if m.Kind == MsgActivation {
		t.pending = t.cfg.or(t.pending, m.Formula)
		t.st.noteFormula(t.pending)
		return
	}
	emit(0, *m)
}

func (t *vcT) doc(r *docReg, emit emitFn) bool {
	switch {
	case isStart(r.ev.Kind):
		if t.pending != nil {
			v := t.pool.Fresh(t.q)
			f := t.cfg.and(t.pending, t.pool.Var(v))
			t.st.noteFormula(f)
			emit(0, actMsg(f))
			t.pending = nil
			t.vars = append(t.vars, varScope{r.depth, v})
			t.st.noteStack(len(t.vars))
		}
		emit(0, docMark)
	case isEnd(r.ev.Kind):
		t.pending = nil
		// Scope left: invalidate the instance (Fig. 6 transition 4's
		// {c,false}). The finalization travels AFTER the end message —
		// behaviourally equivalent for the paper's constructs, and it
		// lets downstream transducers that witness an instance at the
		// very end of its scope (the text-test transducer) get their
		// determination in first. After the finalization nothing can
		// mention the variable again, so its id returns to the pool —
		// this is what keeps memory bounded on unbounded streams.
		emit(0, docMark)
		if n := len(t.vars); n > 0 && t.vars[n-1].depth == r.depth {
			v := t.vars[n-1].v
			if t.neg {
				// Negated qualifier: the instance survived its whole
				// scope without an inner match — not(cond) holds, the
				// witness is true. It travels before the finalization.
				emit(0, Message{Kind: MsgDet, Var: v, Witness: cond.True()})
			}
			emit(0, Message{Kind: MsgDet, Var: v, Final: true})
			if !t.cfg.retainVars {
				t.pool.Release(v)
			}
			t.vars = t.vars[:n-1]
		}
	default:
		emit(0, docMark)
	}
	return len(t.vars) > 0 || t.pending != nil
}

// vfT is the variable-filter transducer of §III.5.2. The positive filter
// VF(q+) rewrites activation formulas to retain only the variables of q and
// of qualifiers nested inside q's condition expression ("drops everything
// else but those variables"); the negative filter VF(q-) drops exactly
// those. Document and determination messages pass through unchanged.
type vfT struct {
	passDoc
	q        cond.QualID
	pool     *cond.Pool
	positive bool
	st       StackStats
}

func newVF(q cond.QualID, pool *cond.Pool, positive bool) *vfT {
	return &vfT{q: q, pool: pool, positive: positive}
}

func (t *vfT) name() string {
	if t.positive {
		return "VF(q+)"
	}
	return "VF(q-)"
}

func (t *vfT) stackStats() StackStats { return t.st }

func (t *vfT) feed(_ int, m *Message, emit emitFn) {
	if m.Kind != MsgActivation {
		emit(0, *m)
		return
	}
	keep := func(v cond.VarID) bool { return t.pool.WithinSubtree(v, t.q) }
	if !t.positive {
		inner := keep
		keep = func(v cond.VarID) bool { return !inner(v) }
	}
	f := m.Formula.Restrict(keep)
	t.st.noteFormula(f)
	emit(0, actMsg(f))
}

// vdT is the variable-determinant transducer of §III.5.3. Every activation
// reaching it witnesses the qualifier instances its formula mentions: for
// each variable c of qualifier q occurring in the (already filtered)
// formula, it emits a determination message. Where the paper emits {c,true}
// — every instance reaching VD is satisfied — this implementation emits the
// witness condition under which the instance is satisfied, which is the
// constant true except when qualifiers nest: then the witness is the
// residual formula of the variables nested below q (the DNF disjuncts
// containing c, with c projected out). Activations are consumed; document
// messages pass; determination messages from nested qualifiers pass through
// so they reach the output transducer (the paper's Fig. 7 predates nested
// determinations and drops them).
type vdT struct {
	passDoc
	q    cond.QualID
	pool *cond.Pool
	cfg  *netConfig
	st   StackStats
}

func newVD(q cond.QualID, pool *cond.Pool, cfg *netConfig) *vdT {
	return &vdT{q: q, pool: pool, cfg: cfg}
}

func (t *vdT) name() string { return "VD" }

func (t *vdT) stackStats() StackStats { return t.st }

func (t *vdT) feed(_ int, m *Message, emit emitFn) {
	if m.Kind != MsgActivation {
		emit(0, *m)
		return
	}
	t.st.noteFormula(m.Formula)
	// Fast path for the overwhelmingly common single-variable formula
	// (an unnested qualifier): the instance is satisfied outright.
	if m.Formula.Op() == cond.OpVar {
		var v cond.VarID
		m.Formula.Visit(func(w cond.VarID) { v = w })
		if t.pool.BelongsTo(v, t.q) {
			emit(0, Message{Kind: MsgDet, Var: v, Witness: cond.True()})
		}
		return
	}
	dnf := m.Formula.DNF()
	// Group disjuncts by the q-variables they contain.
	var order []cond.VarID
	witnesses := make(map[cond.VarID]*cond.Formula)
	for _, disjunct := range dnf {
		for _, v := range disjunct {
			if !t.pool.BelongsTo(v, t.q) {
				continue
			}
			rest := make([]cond.VarID, 0, len(disjunct)-1)
			for _, w := range disjunct {
				if w != v {
					rest = append(rest, w)
				}
			}
			w := cond.FromVars(rest)
			if prev, ok := witnesses[v]; ok {
				witnesses[v] = t.cfg.or(prev, w)
			} else {
				witnesses[v] = w
				order = append(order, v)
			}
		}
	}
	for _, v := range order {
		emit(0, Message{Kind: MsgDet, Var: v, Witness: witnesses[v]})
	}
}

// nvdT is the variable determinant of a negated qualifier base[not(cond)]:
// the dual of vdT. An activation reaching it proves cond selected a node
// within some open instances' scopes, which makes not(cond) false there — so
// for every variable of q the (filtered) formula mentions, it emits the kill
// {c,false} as a witness determination. The negated variable-creator emits
// {c,true} at scope exit for instances never killed. Soundness rests on the
// negated condition being qualifier-free (enforced when predicates are
// lowered and re-checked at compile time): the activation's q-variables are
// then conditioned on nothing, and an inner match is a structural fact of
// the document, killing the instance outright.
type nvdT struct {
	passDoc
	q    cond.QualID
	pool *cond.Pool
	st   StackStats
	seen []cond.VarID // scratch: per-activation variable dedupe
}

func newNVD(q cond.QualID, pool *cond.Pool) *nvdT {
	return &nvdT{q: q, pool: pool}
}

func (t *nvdT) name() string { return "VD(!)" }

func (t *nvdT) stackStats() StackStats { return t.st }

func (t *nvdT) feed(_ int, m *Message, emit emitFn) {
	if m.Kind != MsgActivation {
		emit(0, *m)
		return
	}
	t.st.noteFormula(m.Formula)
	seen := t.seen[:0]
	m.Formula.Visit(func(v cond.VarID) {
		if !t.pool.BelongsTo(v, t.q) {
			return
		}
		for _, s := range seen {
			if s == v {
				return
			}
		}
		seen = append(seen, v)
	})
	for _, v := range seen {
		emit(0, Message{Kind: MsgDet, Var: v, Witness: cond.False()})
	}
	t.seen = seen[:0]
}

// dropActT consumes activation messages and forwards everything else. It
// implements statically false qualifiers — base[not(cond)] where cond is
// nullable: the candidate itself witnesses cond at the event that opens it,
// so not(cond) never holds and base's selections are discarded wholesale.
type dropActT struct {
	passDoc
	st StackStats
}

func newDropAct() *dropActT { return &dropActT{} }

func (t *dropActT) name() string { return "DROP" }

func (t *dropActT) stackStats() StackStats { return t.st }

func (t *dropActT) feed(_ int, m *Message, emit emitFn) {
	if m.Kind == MsgActivation {
		return
	}
	emit(0, *m)
}
