package spexnet

import (
	"math/bits"

	"repro/internal/cond"
)

// condStore is the network's one condition store: what the network knows
// about every condition variable and which candidates wait on it. Only the
// output transducers ever consume a determination, so the transducers that
// originate one (VC, VD, the negated determinant, the preceding axis) hand it
// to the store instead of a tape, and the store applies it to exactly the
// candidates whose formulas mention the variable, whichever sinks hold them.
//
// Order (DESIGN.md §2, "Determinations as a store"): a determination emitted
// before the step's event — a witness, a kill, a preceding-axis credit — takes
// effect at emission. Every reader of a variable lies behind its creator's
// join, hence behind the determinant in topological order, so no sink has seen
// the step's event yet, and an activation mentioning the variable later in the
// step is substituted on arrival (substitute), as "past conditions" are. A
// determination emitted after the event — the scope-exit finalization, and the
// negated variable-creator's {c,true} ahead of it — is queued and applied in
// emission order once the step's sweep has drained (drain), so a witness or
// kill produced anywhere in the same step still wins over the finalization.
type condStore struct {
	cfg *netConfig
	// vars holds one record per variable id. Ids recycle at finalization, so
	// the slice stays as small as the live instances — except under
	// retainVars, where records (like ids) are kept for the whole evaluation.
	vars []varRec
	// bound lists the variables holding a binding: the owners a resolution
	// must be substituted into (nested qualifiers only, so it stays short).
	bound []cond.VarID
	// queue holds the determinations that follow the step's event.
	queue []det
	// sinks are the network's output transducers by sink index; dirty marks
	// those with a candidate decided since their last flush.
	sinks []*outputT
	dirty []uint64
	// resolutions numbers the resolve calls: a sink compares it to count (and
	// trace) each resolution that touches it once.
	resolutions int64
	// applied counts the determinations applied — each exactly once, so it
	// equals the determinations originated.
	applied int64
	// free holds the candidate records nothing refers to any more, for every
	// sink of the network to reuse (outputT.newCandidate, recycle).
	free []*candidate
	// trace, when set, observes every determination when it is applied, under
	// the name of its originator, and every resolution at each sink it
	// changes (as {c,value}).
	trace func(node string, d det)
}

// varRec is the store's record of one condition variable.
type varRec struct {
	// val is set once the variable is determined: a constant, or a residual
	// formula over nested-qualifier variables. Keeping it lets the sinks
	// handle "past conditions" (query class 4 of §VI): an activation may
	// mention a variable determined before the candidate was encountered.
	val *cond.Formula
	// binding accumulates the undetermined witness contributions.
	binding *cond.Formula
	// waiting lists the candidates registered under the variable.
	waiting []waitRef
}

// waitRef refers to a candidate record without keeping it from being recycled:
// the reference is void once the record's generation has moved on.
type waitRef struct {
	c   *candidate
	gen uint32
}

func newCondStore(cfg *netConfig) *condStore { return &condStore{cfg: cfg} }

// addSink registers an output transducer and gives it its sink index.
func (s *condStore) addSink(t *outputT) {
	t.idx = len(s.sinks)
	t.store = s
	s.sinks = append(s.sinks, t)
	if len(s.dirty)*64 < len(s.sinks) {
		s.dirty = append(s.dirty, 0)
	}
}

// reset drops every record (network shed or released).
func (s *condStore) reset() {
	s.vars, s.bound, s.queue, s.free = nil, nil, nil, nil
	clear(s.dirty)
}

// maxKeptRecords is how many variable records and free candidate records a
// rewound store keeps. What the depth of a document bounds stays far below it;
// a document that grew them with its length (variables never retired under
// retainVars, a long run of undecided candidates) does not pin that storage
// for the documents after it.
const maxKeptRecords = 1 << 12

// rewind forgets every variable and determination of the document just
// evaluated (Network.Rewind). The records keep their waiting lists' storage,
// and the candidate records stay on the free list.
func (s *condStore) rewind() {
	if len(s.vars) > maxKeptRecords {
		s.vars = nil
	}
	for i := range s.vars {
		w := s.vars[i].waiting
		clear(w)
		s.vars[i] = varRec{waiting: w[:0]}
	}
	if len(s.free) > maxKeptRecords {
		clear(s.free[maxKeptRecords:])
		s.free = s.free[:maxKeptRecords]
	}
	s.bound, s.queue = s.bound[:0], s.queue[:0]
	clear(s.dirty)
	s.resolutions, s.applied = 0, 0
}

// detOrigin is a transducer's handle on the store: the determinations it
// originates are attributed to it in the trace and in its out_det count.
type detOrigin struct {
	store *condStore
	node  string // the transducer's name
	n     int64  // determinations originated
}

// origin lets the builder find a transducer's handle (netNode.dets).
func (o *detOrigin) origin() *detOrigin { return o }

// determine originates a determination that precedes the step's event; it
// takes effect now. A nil witness is the finalization {c,close}.
func (o *detOrigin) determine(v cond.VarID, witness *cond.Formula) {
	o.n++
	o.store.apply(det{v: v, witness: witness, from: o})
}

// determineAfter originates a determination that follows the step's event; it
// takes effect when the step's sweep has drained.
func (o *detOrigin) determineAfter(v cond.VarID, witness *cond.Formula) {
	o.n++
	o.store.queue = append(o.store.queue, det{v: v, witness: witness, from: o})
}

// drain applies the determinations queued behind the step's event, in
// emission order.
func (s *condStore) drain() {
	for i := range s.queue {
		s.apply(s.queue[i])
	}
	s.queue = s.queue[:0]
}

// rec returns the record of v, growing the table to it.
func (s *condStore) rec(v cond.VarID) *varRec {
	for int(v) >= len(s.vars) {
		s.vars = append(s.vars, varRec{})
	}
	return &s.vars[v]
}

// apply processes one determination and flushes the sinks it decided
// something for, in ascending sink order.
func (s *condStore) apply(d det) {
	s.applied++
	if s.trace != nil {
		s.trace(d.from.node, d)
	}
	rec := s.rec(d.v)
	switch {
	case rec.val != nil:
		// First determination wins: a later scope-exit finalization cannot
		// undo a satisfied instance (cf. Fig. 13, variable co1). The
		// finalization does end the instance's lifetime, though, so it
		// retires the record.
		if d.final() {
			s.retire(d.v)
		}
		return
	case d.final():
		w := s.takeBinding(d.v)
		if w == nil {
			w = cond.False()
		}
		s.resolve(d.v, w)
		s.retire(d.v)
	default:
		w := s.substitute(d.witness)
		if prev := rec.binding; prev != nil {
			w = s.cfg.or(prev, w)
		}
		if w.Determined() {
			// True: the instance is satisfied. False: a kill from a negated
			// qualifier's determinant — the instance is unsatisfiable
			// outright, candidates mentioning it drop immediately. Either way
			// the record stays until the scope-exit finalization retires it:
			// the negated variable-creator still sends its {c,true} at scope
			// exit, which the record absorbs under first-determination-wins
			// (and id recycling stays safe, since the record lives exactly as
			// long as the id).
			s.takeBinding(d.v)
			s.resolve(d.v, w)
		} else {
			s.bind(d.v, w)
		}
	}
	s.flush()
}

// retire ends a finalized variable's lifetime. Nothing can mention the
// variable after its finalization, so its record is cleared — this keeps the
// store bounded on unbounded streams — and its id returns to the pool. Not so
// when the network contains following/preceding steps, whose formulas outlive
// the scopes they mention (netConfig.retainVars).
func (s *condStore) retire(v cond.VarID) {
	if s.cfg.retainVars {
		return
	}
	s.vars[v].val = nil
	s.cfg.pool.Release(v)
}

func (s *condStore) bind(v cond.VarID, w *cond.Formula) {
	if s.vars[v].binding == nil {
		s.bound = append(s.bound, v)
	}
	s.vars[v].binding = w
}

// takeBinding removes and returns v's binding (nil if it has none).
func (s *condStore) takeBinding(v cond.VarID) *cond.Formula {
	w := s.vars[v].binding
	if w == nil {
		return nil
	}
	s.vars[v].binding = nil
	for i, b := range s.bound {
		if b == v {
			last := len(s.bound) - 1
			s.bound[i] = s.bound[last]
			s.bound = s.bound[:last]
			break
		}
	}
	return w
}

// substitute replaces every already-determined variable occurring in f by its
// value, iterating because a value may itself mention variables that were
// determined later.
func (s *condStore) substitute(f *cond.Formula) *cond.Formula {
	for !f.Determined() {
		var hit cond.VarID
		found := false
		f.Visit(func(v cond.VarID) {
			if !found && int(v) < len(s.vars) && s.vars[v].val != nil {
				hit, found = v, true
			}
		})
		if !found {
			break
		}
		f = s.cfg.pool.Assign(f, hit, s.vars[hit].val)
	}
	return f
}

// register files an undecided candidate under every variable of f (its own
// formula, or a residual value just substituted into it).
func (s *condStore) register(c *candidate, f *cond.Formula) {
	f.Visit(func(v cond.VarID) {
		rec := s.rec(v)
		rec.waiting = append(rec.waiting, waitRef{c, c.gen})
	})
}

// resolve binds variable v to val (a constant, or a residual formula over
// variables of nested qualifiers) and substitutes it through the candidates
// waiting on v — skipping records recycled since they registered, candidates
// already decided and those of shed or determined sinks — and through pending
// bindings, cascading as bindings determine. Candidates sharing a formula share
// the substitution (cond.Pool.Assign).
func (s *condStore) resolve(v cond.VarID, val *cond.Formula) {
	s.resolutions++
	pool := s.cfg.pool
	cands := s.vars[v].waiting
	s.vars[v].val, s.vars[v].waiting = val, nil
	for i, ref := range cands {
		cands[i] = waitRef{}
		c := ref.c
		t := c.sink
		if c.gen != ref.gen || c.state != candPending || t.shed || t.determined {
			continue
		}
		f := pool.Assign(c.formula, v, val)
		if f == c.formula {
			continue // v left the formula with an earlier resolution
		}
		if t.seenResolution != s.resolutions {
			t.seenResolution = s.resolutions
			t.detsIn++
			s.dirty[t.idx>>6] |= 1 << (t.idx & 63)
			if s.trace != nil {
				s.trace(t.name(), det{v: v, witness: val})
			}
		}
		t.assign(c, f)
		if c.state == candPending && !val.Determined() {
			s.register(c, val)
		}
	}
	s.vars[v].waiting = cands[:0]
	// Substitute into pending bindings; collect cascaded resolutions.
	var cascade []cond.VarID
	for _, owner := range s.bound {
		nb := pool.Assign(s.vars[owner].binding, v, val)
		if nb.IsTrue() {
			cascade = append(cascade, owner)
		}
		s.vars[owner].binding = nb
	}
	for _, owner := range cascade {
		s.takeBinding(owner)
		s.resolve(owner, cond.True())
	}
}

// flush lets every sink touched since the last flush emit the candidates that
// are now decided, in ascending sink order.
func (s *condStore) flush() {
	for w, m := range s.dirty {
		if m == 0 {
			continue
		}
		s.dirty[w] = 0
		for ; m != 0; m &= m - 1 {
			s.sinks[w<<6|bits.TrailingZeros64(m)].flushQueue()
		}
	}
}
