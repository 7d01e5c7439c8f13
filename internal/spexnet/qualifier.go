package spexnet

import "repro/internal/cond"

// vcT is the variable-creator transducer VC(q) of §III.5.1. For each
// qualifier instance — each activation reaching it — it allocates a fresh
// condition variable c, forwards the activation as [f ∧ c], and when the
// instance's scope (the subtree of the activated element) closes it
// originates the finalization, the paper's {c,false}: if no witness satisfied
// c by then, c is false.
type vcT struct {
	detOrigin
	q   cond.QualID
	cfg *netConfig
	// neg marks the variable-creator of a negated qualifier base[not(cond)]:
	// its instances are innocent until proven guilty. Surviving to scope exit
	// with no inner match means not(cond) holds, so the scope-exit messages
	// are {c,true} followed by the finalization, instead of the positive
	// construction's bare {c,false} finalization. An inner match kills the
	// instance earlier through the negated determinant (determinant.neg); the
	// condition store's first-determination-wins rule lets that kill stand.
	neg bool

	pending *cond.Formula
	// vars holds the live instances: the variable whose scope is the open
	// node at each entry's depth, innermost last.
	vars []varScope

	st StackStats
}

// newVC builds the variable-creator of qualifier q, or of the negated
// qualifier when neg is set (see vcT.neg).
func newVC(q cond.QualID, neg bool, cfg *netConfig, store *condStore) *vcT {
	t := &vcT{q: q, cfg: cfg, neg: neg}
	t.detOrigin = detOrigin{store: store, node: t.name()}
	return t
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

func (t *vcT) rewind() { t.pending, t.vars, t.st, t.n = nil, t.vars[:0], StackStats{}, 0 }

func (t *vcT) feed(f *cond.Formula) {
	t.pending = t.cfg.or(t.pending, f)
	t.st.noteFormula(t.pending)
}

// doc: an instance is created with the activation that arms it; after that
// the only event VC can act on is the end of its innermost instance.
func (t *vcT) doc(r *docReg, out *port) wake {
	switch {
	case isStart(r.ev.Kind):
		if t.pending != nil {
			v := t.cfg.pool.Fresh(t.q)
			f := t.cfg.and(t.pending, t.cfg.pool.Var(v))
			t.st.noteFormula(f)
			out.emit(f)
			t.pending = nil
			t.vars = append(t.vars, varScope{r.depth, v})
			t.st.noteStack(len(t.vars))
		}
	case isEnd(r.ev.Kind):
		t.pending = nil
		// Scope left: invalidate the instance (Fig. 6 transition 4's
		// {c,false}). The finalization FOLLOWS the end message —
		// behaviourally equivalent for the paper's constructs, and it
		// lets transducers that witness an instance at the very end of its
		// scope (the text-test transducer) get their determination in
		// first: the store applies it when the step's sweep has drained.
		// After the finalization nothing can mention the variable again,
		// so the store returns its id to the pool — this is what keeps
		// memory bounded on unbounded streams.
		if n := len(t.vars); n > 0 && t.vars[n-1].depth == r.depth {
			v := t.vars[n-1].v
			if t.neg {
				// Negated qualifier: the instance survived its whole
				// scope without an inner match — not(cond) holds, the
				// witness is true. It goes ahead of the finalization.
				t.determineAfter(v, cond.True())
			}
			t.determineAfter(v, nil)
			t.vars = t.vars[:n-1]
		}
	}
	switch {
	case t.pending != nil:
		return wake{on: wakeAny}
	case len(t.vars) == 0:
		return wake{}
	}
	return wake{on: wakeEnd, depth: int32(t.vars[len(t.vars)-1].depth)}
}

// determinant is the tail of a qualifier's condition sub-network — the
// variable filter VF(q+) of §III.5.2 followed by the variable determinant VD
// of §III.5.3 — lowered to an edge function: neither keeps anything across
// events, so instead of two visits the pair runs where an activation is
// emitted onto the condition's output (port.emit).
//
// The filter rewrites the activation's formula to retain only the variables
// of q and of the qualifiers nested inside q's condition ("drops everything
// else but those variables"). The determinant then witnesses the qualifier
// instances the filtered formula mentions: for each variable c of q occurring
// in it, it originates a determination. Where the paper emits {c,true} —
// every instance reaching VD is satisfied — this implementation gives the
// witness condition under which the instance is satisfied, which is the
// constant true except when qualifiers nest: then the witness is the residual
// formula of the variables nested below q (the DNF disjuncts containing c,
// with c projected out). The activation is consumed. The witness precedes the
// document event it was found at, so it takes effect at once.
//
// Under neg it is the determinant VD(!) of a negated qualifier
// base[not(cond)], the dual: an activation reaching it proves cond selected a
// node within some open instances' scopes, which makes not(cond) false there —
// so for every variable of q the filtered formula mentions, it originates the
// kill {c,false} as a witness determination. The negated variable-creator
// sends {c,true} at scope exit for instances never killed. Soundness rests on
// the negated condition being qualifier-free (enforced when predicates are
// lowered and re-checked at compile time): the activation's q-variables are
// then conditioned on nothing, and an inner match is a structural fact of the
// document, killing the instance outright.
type determinant struct {
	detOrigin
	q         cond.QualID
	cfg       *netConfig
	neg       bool
	witnesses []witness    // scratch of the nested-qualifier path
	seen      []cond.VarID // scratch of the kill: per-activation variable dedupe
}

// witness pairs a variable of q with the condition under which an activation
// satisfies it.
type witness struct {
	v cond.VarID
	w *cond.Formula
}

// newDeterminant builds the determinant of qualifier q, or of the negated
// qualifier when neg is set. Its determinations keep VD's name in the trace.
func newDeterminant(q cond.QualID, neg bool, cfg *netConfig, store *condStore) *determinant {
	t := &determinant{q: q, cfg: cfg, neg: neg}
	t.detOrigin = detOrigin{store: store, node: "VD"}
	if neg {
		t.node = "VD(!)"
	}
	return t
}

// apply consumes one activation emitted onto the condition's output.
func (t *determinant) apply(f *cond.Formula) {
	f = t.cfg.pool.Restrict(f, t.q, true)
	if t.neg {
		t.kill(f)
	} else {
		t.witness(f)
	}
}

func (t *determinant) witness(f *cond.Formula) {
	pool := t.cfg.pool
	// Fast path for the overwhelmingly common single-variable formula
	// (an unnested qualifier): the instance is satisfied outright.
	if f.Op() == cond.OpVar {
		var v cond.VarID
		f.Visit(func(w cond.VarID) { v = w })
		if pool.BelongsTo(v, t.q) {
			t.determine(v, cond.True())
		}
		return
	}
	// Group disjuncts by the q-variables they contain.
	ws := t.witnesses[:0]
	var rest []cond.VarID
	for _, disjunct := range f.DNF() {
	vars:
		for _, v := range disjunct {
			if !pool.BelongsTo(v, t.q) {
				continue
			}
			rest = rest[:0]
			for _, w := range disjunct {
				if w != v {
					rest = append(rest, w)
				}
			}
			w := pool.FromVars(rest)
			for i := range ws {
				if ws[i].v == v {
					ws[i].w = t.cfg.or(ws[i].w, w)
					continue vars
				}
			}
			ws = append(ws, witness{v, w})
		}
	}
	for _, w := range ws {
		t.determine(w.v, w.w)
	}
	t.witnesses = ws[:0]
}

func (t *determinant) kill(f *cond.Formula) {
	seen := t.seen[:0]
	f.Visit(func(v cond.VarID) {
		if !t.cfg.pool.BelongsTo(v, t.q) {
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
		t.determine(v, cond.False())
	}
	t.seen = seen[:0]
}

// dropActT consumes activation messages. It implements statically false
// qualifiers — base[not(cond)] where cond is
// nullable: the candidate itself witnesses cond at the event that opens it,
// so not(cond) never holds and base's selections are discarded wholesale.
type dropActT struct{}

func newDropAct() *dropActT { return &dropActT{} }

func (t *dropActT) name() string { return "DROP" }

func (t *dropActT) stackStats() StackStats { return StackStats{} }

func (t *dropActT) rewind() {}

func (t *dropActT) feed(*cond.Formula) {}

func (t *dropActT) doc(*docReg, *port) wake { return wake{} }
