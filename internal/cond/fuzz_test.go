package cond

import "testing"

// FuzzCondNormalize drives the formula constructors with an arbitrary build
// program and checks the unique table against the string-keyed reference
// implementation (reference_test.go) and against the normalization invariants
// the complexity analysis rests on (Remark V.1): two formulas are the same
// node exactly if the reference gives them the same key; String and Size are
// the reference's; normalizing never grows the formula relative to its raw
// (non-deduplicating) counterpart, is idempotent, and preserves the boolean
// semantics.
//
// Each input byte is one stack-machine instruction: push a variable, push a
// constant, substitute a constant for a variable in the top operand, or
// combine the top operands with ∧/∨ — built three times in lockstep: raw and
// normalized by the reference, and by a Pool.
func FuzzCondNormalize(f *testing.F) {
	f.Add([]byte{0x04, 0x08, 0x02})             // v1, v2, And
	f.Add([]byte{0x04, 0x04, 0x03})             // duplicate Or
	f.Add([]byte{0x01, 0x05, 0x04, 0x02, 0x03}) // constants in the mix
	f.Add([]byte{0x04, 0x08, 0x0c, 0x06, 0x04, 0x08, 0x0e, 0x02})
	f.Add([]byte{0x28, 0x08, 0x03, 0x04, 0x0c, 0x02, 0x06, 0x29, 0x11}) // v10 beside v2, then assign
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		p := newTestPool()
		c := checker{t: t, p: p, byKey: map[string]*Formula{}, byNode: map[*Formula]string{}}
		var raw, want []*ref
		var got []*Formula
		for _, b := range data {
			switch b & 3 {
			case 0: // push a variable from a small space so duplicates occur
				v := VarID(b >> 2 % 16)
				raw, want, got = append(raw, refVar(v)), append(want, refVar(v)), append(got, p.Var(v))
			case 1:
				if b>>2&2 == 0 { // push a constant
					rc, c := refTrue, True()
					if b>>2&1 == 1 {
						rc, c = refFalse, False()
					}
					raw, want, got = append(raw, rc), append(want, rc), append(got, c)
					continue
				}
				// substitute a constant for a variable in the top operand
				if len(got) == 0 {
					continue
				}
				v, rc, c := VarID(b>>4), refTrue, True()
				if b>>2&1 == 1 {
					rc, c = refFalse, False()
				}
				top := len(got) - 1
				raw[top], want[top] = raw[top].assign(v, rc, false), want[top].assign(v, rc, true)
				if g := p.Assign(got[top], v, c); (g == got[top]) != !got[top].HasVar(v) {
					t.Errorf("Assign(%s, v%d) returned %s: identity must mean absence", got[top], v, g)
				} else {
					got[top] = g
				}
			case 2, 3: // combine the top k operands
				k := int(b>>2%4) + 2
				if len(raw) < k {
					continue
				}
				n := len(raw) - k
				var r, w *ref
				var g *Formula
				if b&3 == 2 {
					r, w, g = refRawAnd(raw[n:]...), refAnd(want[n:]...), p.and(got[n:]...)
				} else {
					r, w, g = refRawOr(raw[n:]...), refOr(want[n:]...), p.or(got[n:]...)
				}
				raw, want, got = append(raw[:n], r), append(want[:n], w), append(got[:n], g)
			}
			if n := len(got); n > 0 {
				c.check(raw[n-1], want[n-1], got[n-1])
			}
		}
	})
}

// assign substitutes the constant c for v in the reference formula f.
func (f *ref) assign(v VarID, c *ref, dedupe bool) *ref {
	switch f.op {
	case OpVar:
		if f.v == v {
			return c
		}
	case OpAnd, OpOr:
		kids := make([]*ref, len(f.kids))
		for i, k := range f.kids {
			kids[i] = k.assign(v, c, dedupe)
		}
		return refCombine(f.op, dedupe, kids)
	}
	return f
}

// checker holds what a fuzz run has seen: every reference key with its node
// and every node with its key.
type checker struct {
	t      *testing.T
	p      testPool
	byKey  map[string]*Formula
	byNode map[*Formula]string
}

// renormalize rebuilds a formula bottom-up through the normalizing
// constructors; on an already-normalized formula it must be the identity.
func (c *checker) renormalize(f *Formula) *Formula {
	if f.op != OpAnd && f.op != OpOr {
		return f
	}
	kids := make([]*Formula, len(f.kids))
	for i, k := range f.kids {
		kids[i] = c.renormalize(k)
	}
	return c.p.nary(f.op, kids)
}

func (c *checker) check(raw, want *ref, got *Formula) {
	t := c.t
	t.Helper()
	// Pointer equality ⇔ reference key equality, over everything built so far.
	if prev, ok := c.byKey[want.key]; ok && prev != got {
		t.Errorf("key %s has two nodes: %s and %s", want.key, prev, got)
	}
	if key, ok := c.byNode[got]; ok && key != want.key {
		t.Errorf("node %s stands for two keys: %s and %s", got, key, want.key)
	}
	c.byKey[want.key], c.byNode[got] = got, want.key
	if got.String() != want.String() || got.Size() != want.size {
		t.Errorf("got %s (size %d), reference %s (size %d)", got, got.Size(), want, want.size)
	}
	// Remark V.1: the normalized formula never exceeds the raw build — at
	// most one reference per condition variable survives.
	if got.Size() > raw.size {
		t.Errorf("normalization grew the formula: %d > %d (%s vs %s)", got.Size(), raw.size, got, raw)
	}
	// Idempotency: renormalizing a normalized formula is the identity.
	if again := c.renormalize(got); again != got {
		t.Errorf("not idempotent: %s renormalizes to %s", got, again)
	}
	// Semantics: raw and normalized agree under every full assignment of the
	// variables present (at most 8 are tried exhaustively: the low ones).
	for mask := 0; mask < 256; mask++ {
		val := func(v VarID) bool { return mask>>(uint(v)%8)&1 == 1 }
		nv := got.Eval(func(v VarID) Value {
			if val(v) {
				return ValueTrue
			}
			return ValueFalse
		})
		if raw.eval(val) != (nv == ValueTrue) {
			t.Fatalf("semantics changed under mask %08b: raw %s, normalized %s=%s", mask, raw, got, nv)
		}
	}
	// A determined normalized formula must already be the constant itself.
	if got.Determined() && got != True() && got != False() {
		t.Errorf("determined but not a constant: %s", got)
	}
}
