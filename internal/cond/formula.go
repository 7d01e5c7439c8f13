// Package cond implements the condition formulas of the SPEX paper (§III,
// Definition 2): boolean combinations of condition variables, each variable
// standing for one instance of a qualifier. Activation messages carry such
// formulas through the transducer network; the output transducer resolves
// them as condition determination messages arrive.
//
// Formulas are immutable trees over {true, false, variable, ∧, ∨}, built by a
// Pool. The constructors normalize: nested same-operator nodes are flattened,
// boolean constants absorbed, and duplicate operands eliminated — the
// normalization the paper relies on so that "a formula contains at most one
// reference to a condition variable" (§III.4) and that yields the Σnᵢ ≤ d
// bound of Remark V.1. Nodes are hash-consed in the pool's unique table
// (table.go): two formulas of one pool are structurally equal exactly if they
// are the same pointer.
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

// Formula is an immutable boolean formula. The zero value is not valid; the
// constants come from True and False, everything else from a Pool, and
// formulas of different pools must not be combined.
type Formula struct {
	op Op
	v  VarID
	// id orders the operands of a node canonically and keys the unique table;
	// a pool never hands out the same id twice.
	id   uint64
	size int
	kids []*Formula // in ascending id order
	// next chains the nodes of one unique-table bucket.
	next *Formula
	// memoTo is the result of the pool's substitution number memoAt on this
	// node (Pool.Assign).
	memoAt uint64
	memoTo *Formula
}

var (
	trueF  = &Formula{op: OpTrue, size: 1}
	falseF = &Formula{op: OpFalse, size: 1}
)

// True returns the constant-true formula.
func True() *Formula { return trueF }

// False returns the constant-false formula.
func False() *Formula { return falseF }

// Op returns the operator of the root node.
func (f *Formula) Op() Op { return f.op }

// IsTrue reports whether f is the constant true.
func (f *Formula) IsTrue() bool { return f.op == OpTrue }

// IsFalse reports whether f is the constant false.
func (f *Formula) IsFalse() bool { return f.op == OpFalse }

// Determined reports whether f is a boolean constant.
func (f *Formula) Determined() bool { return f.op == OpTrue || f.op == OpFalse }

// Size returns the paper's formula size σ: the number of leaves (variable
// occurrences, with constants counting one).
func (f *Formula) Size() int { return f.size }

// Visit calls fn for every variable occurrence in f.
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

// String renders f in the paper's notation, e.g. "(v1∨v2)∧v3".
func (f *Formula) String() string {
	var b strings.Builder
	f.render(&b, 0)
	return b.String()
}

func (f *Formula) render(b *strings.Builder, parentPrec int) {
	switch f.op {
	case OpTrue:
		b.WriteString("true")
		return
	case OpFalse:
		b.WriteString("false")
		return
	case OpVar:
		b.WriteString(f.printKey())
		return
	}
	prec, sep := 2, "∧"
	if f.op == OpOr {
		prec, sep = 1, "∨"
	}
	if prec < parentPrec {
		b.WriteByte('(')
	}
	for i, k := range f.printOrder() {
		if i > 0 {
			b.WriteString(sep)
		}
		k.render(b, prec)
	}
	if prec < parentPrec {
		b.WriteByte(')')
	}
}

// printOrder returns f's operands in the order String shows them. The
// canonical operand order is by node id, which depends on the order nodes
// were built in; what is printed must not, so operands print ordered by a
// structural key, as text: composite operands first, ∧ before ∨, then the
// variables by their decimal spelling ("v10" before "v2"). Print time only.
func (f *Formula) printOrder() []*Formula {
	kids := slices.Clone(f.kids)
	slices.SortFunc(kids, func(a, b *Formula) int { return strings.Compare(a.printKey(), b.printKey()) })
	return kids
}

func (f *Formula) printKey() string {
	switch f.op {
	case OpVar:
		return "v" + strconv.FormatUint(uint64(f.v), 10)
	case OpAnd, OpOr:
		key := "(&"
		if f.op == OpOr {
			key = "(|"
		}
		for _, k := range f.printOrder() {
			key += " " + k.printKey()
		}
		return key + ")"
	}
	return ""
}

// DNF returns f as a disjunction of conjunctions of variables: each element
// is one disjunct, given as a sorted set of variable ids, and the disjuncts
// are sorted and distinct, so the result depends on what f means only, not on
// the order it was built in. For constant true the result is [][]VarID{{}}
// and for constant false it is nil. DNF is used by the variable-determinant
// transducer to extract per-instance witness conditions; SPEX formulas stay
// small (bounded by §V), so the worst-case blow-up is acceptable there.
func (f *Formula) DNF() [][]VarID {
	switch f.op {
	case OpTrue:
		return [][]VarID{{}}
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
	}
	return nil // false
}

// mergeVars returns the union of two sorted variable sets.
func mergeVars(a, b []VarID) []VarID {
	out := append(slices.Clone(a), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

// dedupeDisjuncts sorts the disjuncts (each a sorted variable set) and drops
// the repeated ones, in place.
func dedupeDisjuncts(ds [][]VarID) [][]VarID {
	slices.SortFunc(ds, slices.Compare[[]VarID])
	return slices.CompactFunc(ds, slices.Equal[[]VarID])
}
