package cond

import "slices"

// The unique table. Every ∧/∨ node of a pool is interned under its operator
// and the ids of its (normalized, id-sorted) operands, so structural equality
// is pointer equality, duplicate operands are found by comparing pointers,
// and a constructor that arrives at a node built before returns that node and
// allocates nothing. Variable ids recycle from record to record of a stream,
// so the same keys come round again and the table stops growing after the
// first records.
//
// The bound: a node lives as long as its table, and a table only grows while
// variables are live — over an id space of depth × qualifiers. When the last
// live variable is released nothing holds a formula but a constant (that is
// what let the ids recycle), so Pool.Release drops a table grown past
// tableDropSize wholesale: a fresh map, the old nodes left to the collector,
// none reused in place. A pool whose variables are never released keeps its
// table, as it keeps the variables. A node that did outlive a drop would
// still mean what it meant; it would only not be found equal to its twin.
type table struct {
	buckets map[uint64]*Formula // hash of (op, operand ids) → chain via next
	nodes   int                 // ∧/∨ nodes interned since the last drop
	ids     uint64              // last node id handed out
	// stack is the operand scratch of the constructors, used as a stack by
	// the recursive ones; a lookup that hits never copies out of it.
	stack []*Formula
	// built and found count the lookups that missed and hit.
	built, found int64
	// step numbers the substitutions memoised on the nodes (Assign): one per
	// run of calls with the same variable and value.
	step    uint64
	stepVar VarID
	stepVal *Formula
}

// tableDropSize is the node count above which a table is dropped when no
// variable is live. Far above what record-structured streams settle at (the
// 128 subscriptions of the sdi workload share 92 nodes).
const tableDropSize = 1 << 12

// TableSize returns the number of ∧/∨ nodes in the unique table.
func (p *Pool) TableSize() int { return p.tab.nodes }

// TableLookups returns how many constructor lookups built a new node and how
// many found an existing one.
func (p *Pool) TableLookups() (built, found int64) { return p.tab.built, p.tab.found }

// And returns the normalized conjunction of a and b.
func (p *Pool) And(a, b *Formula) *Formula { return p.binary(OpAnd, trueF, falseF, a, b) }

// Or returns the normalized disjunction of a and b.
func (p *Pool) Or(a, b *Formula) *Formula { return p.binary(OpOr, falseF, trueF, a, b) }

// binary settles the cases a constant or a repeated operand decides before
// anything is pushed; activation formulas are mostly those.
func (p *Pool) binary(op Op, unit, zero, a, b *Formula) *Formula {
	switch {
	case a == b || b == unit:
		return a
	case a == unit:
		return b
	case a == zero || b == zero:
		return zero
	}
	p.tab.stack = append(p.tab.stack, a, b)
	return p.combine(op, len(p.tab.stack)-2)
}

// FromVars builds the conjunction of the given variables.
func (p *Pool) FromVars(vars []VarID) *Formula {
	base := len(p.tab.stack)
	for _, v := range vars {
		p.tab.stack = append(p.tab.stack, p.Var(v))
	}
	return p.combine(OpAnd, base)
}

// combine pops the operands stack[base:] and returns their normalized n-ary ∧
// or ∨: same-operator operands flattened (one level is all there is — they
// are normalized themselves), constants absorbed, duplicates removed.
func (p *Pool) combine(op Op, base int) *Formula {
	t := &p.tab
	unit, zero := trueF, falseF
	if op == OpOr {
		unit, zero = falseF, trueF
	}
	n := len(t.stack)
	for _, f := range t.stack[base:n] {
		switch {
		case f == zero:
			t.stack = t.stack[:base]
			return zero
		case f == unit:
		case f.op == op:
			t.stack = append(t.stack, f.kids...)
		default:
			t.stack = append(t.stack, f)
		}
	}
	// Insertion sort by id, dropping duplicates: operands are few and mostly
	// sorted already.
	kids := t.stack[n:n]
	for _, f := range t.stack[n:] {
		i := len(kids)
		for i > 0 && kids[i-1].id > f.id {
			i--
		}
		if i > 0 && kids[i-1] == f {
			continue
		}
		kids = kids[:len(kids)+1]
		copy(kids[i+1:], kids[i:])
		kids[i] = f
	}
	var res *Formula
	switch len(kids) {
	case 0:
		res = unit
	case 1:
		res = kids[0]
	default:
		res = t.intern(op, kids)
	}
	t.stack = t.stack[:base]
	return res
}

// intern returns the node (op, kids), building it if the table has none. kids
// is scratch: a new node gets a copy.
func (t *table) intern(op Op, kids []*Formula) *Formula {
	h := uint64(op)
	size := 0
	for _, k := range kids {
		h = (h ^ k.id) * 0x9E3779B97F4A7C15
		size += k.size
	}
	head := t.buckets[h]
chain:
	for f := head; f != nil; f = f.next {
		if f.op != op || len(f.kids) != len(kids) {
			continue
		}
		for i, k := range kids {
			if f.kids[i] != k {
				continue chain
			}
		}
		t.found++
		return f
	}
	if t.buckets == nil {
		t.buckets = make(map[uint64]*Formula)
	}
	t.built++
	t.nodes++
	t.ids++
	f := &Formula{op: op, id: t.ids, size: size, kids: slices.Clone(kids), next: head}
	t.buckets[h] = f
	return f
}

// drop forgets every interned node. Ids and variable nodes carry on, and the
// next substitution starts a new step, so nothing built later can be mistaken
// for an old node and no memo leads back to one.
func (t *table) drop() {
	t.buckets, t.nodes, t.stepVal = nil, 0, nil
}

// Assign substitutes val for every occurrence of variable v in f and
// simplifies; it returns f itself exactly if v does not occur in it. val is
// typically True() or False(), but may be any formula (nested-qualifier
// determinations bind a variable to the formula of its witnesses). Successive
// calls with the same v and val share their work: every node remembers what
// the substitution made of it, so the candidates waiting on one variable cost
// one substitution per distinct formula, not one each.
func (p *Pool) Assign(f *Formula, v VarID, val *Formula) *Formula {
	t := &p.tab
	if v != t.stepVar || val != t.stepVal {
		t.step++
		t.stepVar, t.stepVal = v, val
	}
	return p.assign(f, v, val)
}

func (p *Pool) assign(f *Formula, v VarID, val *Formula) *Formula {
	switch f.op {
	case OpVar:
		if f.v == v {
			return val
		}
	case OpAnd, OpOr:
		t := &p.tab
		if f.memoAt == t.step {
			return f.memoTo
		}
		base, changed := len(t.stack), false
		for _, k := range f.kids {
			nk := p.assign(k, v, val)
			changed = changed || nk != k
			t.stack = append(t.stack, nk)
		}
		res := f
		if changed {
			res = p.combine(f.op, base)
		} else {
			t.stack = t.stack[:base]
		}
		f.memoAt, f.memoTo = t.step, res
		return res
	}
	return f
}

// Restrict replaces by true every variable outside the subtree of qualifier q
// (positive: the variable filter VF(q+), which drops from condition formulas
// "all other variables that do not belong to q", §III.5.3) or inside it
// (VF(q-)), and simplifies. It is computed afresh every time, never memoised:
// which qualifier owns a variable id changes when the id is recycled (Fresh),
// and a second visit costs no allocation anyway, every node being found.
func (p *Pool) Restrict(f *Formula, q QualID, positive bool) *Formula {
	switch f.op {
	case OpVar:
		if p.WithinSubtree(f.v, q) != positive {
			return trueF
		}
	case OpAnd, OpOr:
		base := len(p.tab.stack)
		for _, k := range f.kids {
			p.tab.stack = append(p.tab.stack, p.Restrict(k, q, positive))
		}
		return p.combine(f.op, base)
	}
	return f
}
