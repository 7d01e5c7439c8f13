// Package cond implements the condition formulas of the SPEX paper (§III,
// Definition 2): boolean combinations of condition variables, each variable
// standing for one instance of a qualifier. Activation messages carry such
// formulas through the transducer network; the output transducer resolves
// them as condition determination messages arrive.
//
// Formulas are immutable trees over {true, false, variable, ∧, ∨}. The
// constructors normalize: nested same-operator nodes are flattened, boolean
// constants absorbed, and duplicate operands eliminated — the normalization
// the paper relies on so that "a formula contains at most one reference to a
// condition variable" (§III.4) and that yields the Σnᵢ ≤ d bound of Remark
// V.1. Raw (non-deduplicating) constructors exist for the ablation
// benchmarks.
package cond

import (
	"slices"
	"strconv"
	"strings"
)

// VarID identifies a condition variable. Variables are allocated by a Pool;
// each belongs to the qualifier whose instance it represents.
type VarID uint32

// Op is a formula node operator.
type Op uint8

// Formula node operators.
const (
	OpTrue Op = iota
	OpFalse
	OpVar
	OpAnd
	OpOr
)

// Formula is an immutable boolean formula. The zero value is not valid; use
// the constructors. Two normalized formulas are semantically equal if their
// Keys are equal.
type Formula struct {
	op   Op
	v    VarID
	kids []*Formula
	key  string
	size int
}

var (
	trueF  = &Formula{op: OpTrue, key: "T", size: 1}
	falseF = &Formula{op: OpFalse, key: "F", size: 1}
)

// True returns the constant-true formula.
func True() *Formula { return trueF }

// False returns the constant-false formula.
func False() *Formula { return falseF }

// Var returns the formula consisting of the single variable v.
func Var(v VarID) *Formula {
	return &Formula{op: OpVar, v: v, key: "v" + strconv.FormatUint(uint64(v), 10), size: 1}
}

// Op returns the operator of the root node.
func (f *Formula) Op() Op { return f.op }

// IsTrue reports whether f is the constant true.
func (f *Formula) IsTrue() bool { return f.op == OpTrue }

// IsFalse reports whether f is the constant false.
func (f *Formula) IsFalse() bool { return f.op == OpFalse }

// Determined reports whether f is a boolean constant.
func (f *Formula) Determined() bool { return f.op == OpTrue || f.op == OpFalse }

// Key returns a canonical string key: normalized formulas with equal keys
// are structurally identical.
func (f *Formula) Key() string { return f.key }

// Size returns the paper's formula size σ: the number of leaves (variable
// occurrences, with constants counting one).
func (f *Formula) Size() int { return f.size }

// Visit calls fn for every distinct variable occurrence in f.
func (f *Formula) Visit(fn func(VarID)) {
	switch f.op {
	case OpVar:
		fn(f.v)
	case OpAnd, OpOr:
		for _, k := range f.kids {
			k.Visit(fn)
		}
	}
}

// VarSet returns the set of variables occurring in f.
func (f *Formula) VarSet() map[VarID]bool {
	set := make(map[VarID]bool)
	f.Visit(func(v VarID) { set[v] = true })
	return set
}

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

// String renders f in the paper's notation, e.g. "(v1∨v2)∧v3".
func (f *Formula) String() string {
	var b strings.Builder
	f.render(&b, 0)
	return b.String()
}

func (f *Formula) render(b *strings.Builder, parentPrec int) {
	prec := 0
	switch f.op {
	case OpTrue:
		b.WriteString("true")
		return
	case OpFalse:
		b.WriteString("false")
		return
	case OpVar:
		b.WriteString("v")
		b.WriteString(strconv.FormatUint(uint64(f.v), 10))
		return
	case OpAnd:
		prec = 2
	case OpOr:
		prec = 1
	}
	sep := "∧"
	if f.op == OpOr {
		sep = "∨"
	}
	needParens := prec < parentPrec
	if needParens {
		b.WriteByte('(')
	}
	for i, k := range f.kids {
		if i > 0 {
			b.WriteString(sep)
		}
		k.render(b, prec)
	}
	if needParens {
		b.WriteByte(')')
	}
}

// And returns the normalized conjunction of the given formulas.
func And(fs ...*Formula) *Formula { return combine(OpAnd, true, fs) }

// Or returns the normalized disjunction of the given formulas.
func Or(fs ...*Formula) *Formula { return combine(OpOr, true, fs) }

// RawAnd is And without duplicate-operand elimination; used by the
// normalization ablation. Constants are still absorbed (otherwise formulas
// would be dominated by "true" leaves rather than by the duplication the
// ablation studies).
func RawAnd(fs ...*Formula) *Formula { return combine(OpAnd, false, fs) }

// RawOr is Or without duplicate-operand elimination.
func RawOr(fs ...*Formula) *Formula { return combine(OpOr, false, fs) }

// combine builds an n-ary ∧ or ∨ node: it flattens same-operator children,
// absorbs constants and (when dedupe is set) removes duplicate operands.
func combine(op Op, dedupe bool, fs []*Formula) *Formula {
	unit, zero := trueF, falseF
	if op == OpOr {
		unit, zero = falseF, trueF
	}
	// Sized for the operands as given; only flattening a nested same-operator
	// child makes it grow.
	kids := make([]*Formula, 0, len(fs))
	var flatten func(f *Formula) bool // returns false when result is the absorbing constant
	flatten = func(f *Formula) bool {
		switch {
		case f == zero:
			return false
		case f == unit:
			return true
		case f.op == op:
			for _, k := range f.kids {
				if !flatten(k) {
					return false
				}
			}
			return true
		default:
			kids = append(kids, f)
			return true
		}
	}
	for _, f := range fs {
		if f == nil {
			continue
		}
		if !flatten(f) {
			return zero
		}
	}
	if len(kids) == 0 {
		return unit
	}
	if dedupe {
		kids = dedupeByKey(kids)
	}
	if len(kids) == 1 {
		return kids[0]
	}
	return newNode(op, kids, dedupe)
}

// dedupeByKey sorts children by canonical key and removes exact duplicates,
// in place: the caller owns kids. Sorting also canonicalizes operand order so
// that commutatively equal formulas share one key.
func dedupeByKey(kids []*Formula) []*Formula {
	if len(kids) <= 1 {
		return kids
	}
	slices.SortFunc(kids, func(a, b *Formula) int { return strings.Compare(a.key, b.key) })
	out := kids[:1]
	for _, k := range kids[1:] {
		if k.key != out[len(out)-1].key {
			out = append(out, k)
		}
	}
	return out
}

func newNode(op Op, kids []*Formula, canonical bool) *Formula {
	n := len("(&)")
	for _, k := range kids {
		n += 1 + len(k.key)
	}
	var b strings.Builder
	b.Grow(n)
	if op == OpAnd {
		b.WriteString("(&")
	} else {
		b.WriteString("(|")
	}
	size := 0
	for _, k := range kids {
		b.WriteByte(' ')
		b.WriteString(k.key)
		size += k.size
	}
	b.WriteByte(')')
	return &Formula{op: op, kids: kids, key: b.String(), size: size}
}

// Assign substitutes val for every occurrence of variable v in f and
// simplifies. val is typically True() or False(), but may be any formula
// (nested-qualifier determinations bind a variable to the formula of its
// witnesses).
func (f *Formula) Assign(v VarID, val *Formula) *Formula {
	switch f.op {
	case OpTrue, OpFalse:
		return f
	case OpVar:
		if f.v == v {
			return val
		}
		return f
	case OpAnd, OpOr:
		if !f.HasVar(v) {
			return f
		}
		kids := make([]*Formula, len(f.kids))
		for i, k := range f.kids {
			kids[i] = k.Assign(v, val)
		}
		return combine(f.op, true, kids)
	default:
		return f
	}
}

// Restrict replaces every variable for which keep returns false by true and
// simplifies. The variable-filter transducer VF(q+) uses it to drop from
// condition formulas "all other variables that do not belong to q" (§III.5.3).
func (f *Formula) Restrict(keep func(VarID) bool) *Formula {
	switch f.op {
	case OpTrue, OpFalse:
		return f
	case OpVar:
		if keep(f.v) {
			return f
		}
		return trueF
	case OpAnd, OpOr:
		kids := make([]*Formula, len(f.kids))
		for i, k := range f.kids {
			kids[i] = k.Restrict(keep)
		}
		return combine(f.op, true, kids)
	default:
		return f
	}
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

// DNF returns f as a disjunction of conjunctions of variables: each element
// is one disjunct, given as a sorted set of variable ids. It returns
// (nil, true) for constant true (one empty disjunct is represented as an
// empty conjunction in the slice) — precisely: for constant true the result
// is [][]VarID{{}} and for constant false it is nil. DNF is used by the
// variable-determinant transducer to extract per-instance witness
// conditions; SPEX formulas stay small (bounded by §V), so the worst-case
// blow-up is acceptable there.
func (f *Formula) DNF() [][]VarID {
	switch f.op {
	case OpTrue:
		return [][]VarID{{}}
	case OpFalse:
		return nil
	case OpVar:
		return [][]VarID{{f.v}}
	case OpOr:
		var out [][]VarID
		for _, k := range f.kids {
			out = append(out, k.DNF()...)
		}
		return dedupeDisjuncts(out)
	case OpAnd:
		out := [][]VarID{{}}
		for _, k := range f.kids {
			kd := k.DNF()
			if len(kd) == 0 {
				return nil
			}
			next := make([][]VarID, 0, len(out)*len(kd))
			for _, a := range out {
				for _, b := range kd {
					next = append(next, mergeVars(a, b))
				}
			}
			out = next
		}
		return dedupeDisjuncts(out)
	default:
		return nil
	}
}

func mergeVars(a, b []VarID) []VarID {
	out := make([]VarID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func dedupeDisjuncts(ds [][]VarID) [][]VarID {
	if len(ds) <= 1 {
		return ds
	}
	seen := make(map[string]bool, len(ds))
	out := ds[:0]
	var b strings.Builder
	for _, d := range ds {
		b.Reset()
		for _, v := range d {
			b.WriteString(strconv.FormatUint(uint64(v), 10))
			b.WriteByte(',')
		}
		key := b.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, d)
	}
	return out
}

// FromVars builds a conjunction of the given variables; a convenience for
// tests and the determinant transducer.
func FromVars(vars []VarID) *Formula {
	fs := make([]*Formula, len(vars))
	for i, v := range vars {
		fs[i] = Var(v)
	}
	return And(fs...)
}
