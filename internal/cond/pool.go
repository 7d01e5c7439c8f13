package cond

import "slices"

// QualID identifies one qualifier construct of a compiled expression.
// Qualifier ids are assigned at network-construction time; the variables a
// pool allocates at evaluation time each belong to one qualifier.
type QualID int

// Pool allocates condition variables and records which qualifier each
// belongs to, plus the static nesting relation between qualifiers (needed by
// the variable-filter for nested qualifiers: the witness condition of an
// instance of q may mention variables of qualifiers nested inside q's
// condition expression).
//
// A pool also owns the unique table its formulas are interned in (table.go).
// It belongs to one network and one goroutine; nothing in it is locked, and
// everything in it is created at first use.
type Pool struct {
	next   VarID
	quals  []QualID   // quals[v] = qualifier owning variable v
	free   []VarID    // released ids available for reuse
	vcache []*Formula // the single-variable formulas, indexed by id
	inside [][]QualID // inside[q] = the qualifiers nested in q's condition
	tab    table
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// DeclareQualifier registers a new qualifier and returns its id. nested
// lists the qualifier ids syntactically nested inside this qualifier's
// condition expression (transitively); when the condition has not been
// compiled yet, declare with nil and call SetNested afterwards.
func (p *Pool) DeclareQualifier(nested []QualID) QualID {
	p.inside = append(p.inside, slices.Clone(nested))
	return QualID(len(p.inside) - 1)
}

// SetNested records the qualifiers nested inside q's condition expression,
// for qualifiers declared before their condition was compiled.
func (p *Pool) SetNested(q QualID, nested []QualID) {
	p.inside[q] = slices.Clone(nested)
}

// Qualifiers returns the number of declared qualifiers.
func (p *Pool) Qualifiers() int { return len(p.inside) }

// Fresh allocates a condition variable belonging to qualifier q, reusing a
// released id when one is available. Reuse keeps the id space — and
// therefore every id-indexed structure — bounded by the number of
// simultaneously live instances (at most the stream depth times the number
// of qualifiers), which is what makes evaluation of unbounded streams run
// in bounded memory. A recycled id may pass to another qualifier, so the
// owner of an id is stable only while the variable lives; that is why
// Restrict, the one formula operation that reads it, is not memoised.
func (p *Pool) Fresh(q QualID) VarID {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free = p.free[:n-1]
		p.quals[v] = q
		return v
	}
	v := p.next
	p.next++
	p.quals = append(p.quals, q)
	return v
}

// Var returns the single-variable formula for v: one node per id, kept for
// the pool's lifetime. Since ids are recycled, there are as few of them as
// there were simultaneously live instances.
func (p *Pool) Var(v VarID) *Formula {
	for int(v) >= len(p.vcache) {
		p.vcache = append(p.vcache, nil)
	}
	if f := p.vcache[v]; f != nil {
		return f
	}
	p.tab.ids++
	f := &Formula{op: OpVar, v: v, id: p.tab.ids, size: 1}
	p.vcache[v] = f
	return f
}

// Release returns a variable id to the pool. Callers must guarantee the
// variable can no longer occur in any formula — the variable-creator
// releases an instance after emitting its scope-exit finalization, at which
// point no transducer stack, candidate or binding can mention it anymore.
//
// When the last live variable goes, an oversized unique table goes with it.
func (p *Pool) Release(v VarID) {
	p.free = append(p.free, v)
	if p.Live() == 0 && p.tab.nodes > tableDropSize {
		p.tab.drop()
	}
}

// Allocated returns the number of variables allocated so far.
func (p *Pool) Allocated() int { return int(p.next) }

// Live returns the number of variables currently live: allocated and not yet
// released. For well-behaved streams this is bounded by depth × qualifiers
// (the invariant behind the paper's space theorem); the resource governor
// polls it to detect runs where the invariant is being defeated.
func (p *Pool) Live() int { return int(p.next) - len(p.free) }

// BelongsTo reports whether v is a variable of qualifier q itself.
func (p *Pool) BelongsTo(v VarID, q QualID) bool { return p.quals[v] == q }

// WithinSubtree reports whether v belongs to q or to a qualifier nested
// inside q's condition expression. The positive variable-filter VF(q+)
// keeps exactly these variables.
func (p *Pool) WithinSubtree(v VarID, q QualID) bool {
	return p.quals[v] == q || slices.Contains(p.inside[q], p.quals[v])
}

// Reset discards all allocated variables but keeps the qualifier declarations;
// a network calls it when it is shed, released or rewound for its next
// document. No formula is held anywhere by then, so the ids start over. The
// unique table stays under the rule Release applies to it, and so do the
// variable nodes it mentions — the next document finds its formulas built —
// unless a document whose variables were never released (the following and
// preceding axes) grew them with its length.
func (p *Pool) Reset() {
	p.next = 0
	p.quals = p.quals[:0]
	p.free = p.free[:0]
	if p.tab.nodes > tableDropSize || len(p.vcache) > tableDropSize {
		p.tab.drop()
		p.quals, p.vcache = nil, nil
	}
}
