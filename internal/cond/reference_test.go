package cond

import (
	"slices"
	"strconv"
	"strings"
)

// ref is the string-keyed formula implementation the package shipped before
// the unique table: every constructor builds a fresh tree whose identity is a
// rendered key. It stays here as the reference the table is compared against
// (FuzzCondNormalize) and as the home of the raw, non-deduplicating
// constructors of the Remark V.1 ablation (E12).
type ref struct {
	op   Op
	v    VarID
	kids []*ref
	key  string
	size int
}

var (
	refTrue  = &ref{op: OpTrue, key: "T", size: 1}
	refFalse = &ref{op: OpFalse, key: "F", size: 1}
)

func refVar(v VarID) *ref {
	return &ref{op: OpVar, v: v, key: "v" + strconv.FormatUint(uint64(v), 10), size: 1}
}

func refAnd(fs ...*ref) *ref    { return refCombine(OpAnd, true, fs) }
func refOr(fs ...*ref) *ref     { return refCombine(OpOr, true, fs) }
func refRawAnd(fs ...*ref) *ref { return refCombine(OpAnd, false, fs) }
func refRawOr(fs ...*ref) *ref  { return refCombine(OpOr, false, fs) }

// refCombine builds an n-ary ∧ or ∨ node: it flattens same-operator children,
// absorbs constants and (when dedupe is set) sorts the operands by key and
// removes the duplicates. Raw nodes still absorb constants — otherwise
// formulas would be dominated by "true" leaves rather than by the duplication
// the ablation studies.
func refCombine(op Op, dedupe bool, fs []*ref) *ref {
	unit, zero := refTrue, refFalse
	if op == OpOr {
		unit, zero = refFalse, refTrue
	}
	var kids []*ref
	var flatten func(f *ref) bool
	flatten = func(f *ref) bool {
		switch {
		case f == zero:
			return false
		case f == unit:
		case f.op == op:
			for _, k := range f.kids {
				if !flatten(k) {
					return false
				}
			}
		default:
			kids = append(kids, f)
		}
		return true
	}
	for _, f := range fs {
		if !flatten(f) {
			return zero
		}
	}
	if dedupe {
		slices.SortFunc(kids, func(a, b *ref) int { return strings.Compare(a.key, b.key) })
		kids = slices.CompactFunc(kids, func(a, b *ref) bool { return a.key == b.key })
	}
	switch len(kids) {
	case 0:
		return unit
	case 1:
		return kids[0]
	}
	key, size := "(&", 0
	if op == OpOr {
		key = "(|"
	}
	for _, k := range kids {
		key += " " + k.key
		size += k.size
	}
	return &ref{op: op, kids: kids, key: key + ")", size: size}
}

// String renders f as Formula.String did: operands in stored (key) order.
func (f *ref) String() string {
	var b strings.Builder
	f.render(&b, 0)
	return b.String()
}

func (f *ref) render(b *strings.Builder, parentPrec int) {
	switch f.op {
	case OpTrue:
		b.WriteString("true")
		return
	case OpFalse:
		b.WriteString("false")
		return
	case OpVar:
		b.WriteString(f.key)
		return
	}
	prec, sep := 2, "∧"
	if f.op == OpOr {
		prec, sep = 1, "∨"
	}
	if prec < parentPrec {
		b.WriteByte('(')
	}
	for i, k := range f.kids {
		if i > 0 {
			b.WriteString(sep)
		}
		k.render(b, prec)
	}
	if prec < parentPrec {
		b.WriteByte(')')
	}
}

// eval evaluates f under a total assignment.
func (f *ref) eval(val func(VarID) bool) bool {
	switch f.op {
	case OpTrue:
		return true
	case OpFalse:
		return false
	case OpVar:
		return val(f.v)
	}
	for _, k := range f.kids {
		if k.eval(val) != (f.op == OpAnd) {
			return f.op == OpOr
		}
	}
	return f.op == OpAnd
}

// testPool extends a Pool with the variadic constructors the tests are
// written in.
type testPool struct{ *Pool }

func newTestPool() testPool { return testPool{NewPool()} }

func (p testPool) and(fs ...*Formula) *Formula { return p.nary(OpAnd, fs) }
func (p testPool) or(fs ...*Formula) *Formula  { return p.nary(OpOr, fs) }

func (p testPool) nary(op Op, fs []*Formula) *Formula {
	base := len(p.tab.stack)
	p.tab.stack = append(p.tab.stack, fs...)
	return p.combine(op, base)
}

// varSet returns the set of variables occurring in f.
func varSet(f *Formula) map[VarID]bool {
	set := make(map[VarID]bool)
	f.Visit(func(v VarID) { set[v] = true })
	return set
}

// The rest of this file is what only the tests ask of a Formula.

// HasVar reports whether v occurs in f.
func (f *Formula) HasVar(v VarID) bool {
	switch f.op {
	case OpVar:
		return f.v == v
	case OpAnd, OpOr:
		for _, k := range f.kids {
			if k.HasVar(v) {
				return true
			}
		}
	}
	return false
}

// Eval evaluates f under the partial assignment given by lookup, which
// returns the value of a variable or Unknown. The result is three-valued.
func (f *Formula) Eval(lookup func(VarID) Value) Value {
	switch f.op {
	case OpTrue:
		return ValueTrue
	case OpFalse:
		return ValueFalse
	case OpVar:
		return lookup(f.v)
	case OpAnd:
		result := ValueTrue
		for _, k := range f.kids {
			switch k.Eval(lookup) {
			case ValueFalse:
				return ValueFalse
			case ValueUnknown:
				result = ValueUnknown
			}
		}
		return result
	case OpOr:
		result := ValueFalse
		for _, k := range f.kids {
			switch k.Eval(lookup) {
			case ValueTrue:
				return ValueTrue
			case ValueUnknown:
				result = ValueUnknown
			}
		}
		return result
	default:
		return ValueUnknown
	}
}

// Value is a three-valued truth value.
type Value uint8

// Truth values.
const (
	ValueUnknown Value = iota
	ValueTrue
	ValueFalse
)

// String returns "unknown", "true" or "false".
func (v Value) String() string {
	switch v {
	case ValueTrue:
		return "true"
	case ValueFalse:
		return "false"
	default:
		return "unknown"
	}
}
