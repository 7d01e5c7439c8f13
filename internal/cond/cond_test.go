package cond

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestConstructorsSimplify(t *testing.T) {
	p := newTestPool()
	v1, v2 := p.Var(1), p.Var(2)
	tests := []struct {
		got  *Formula
		want string
	}{
		{p.and(), "true"},
		{p.or(), "false"},
		{p.And(True(), v1), "v1"},
		{p.And(False(), v1), "false"},
		{p.Or(True(), v1), "true"},
		{p.Or(False(), v1), "v1"},
		{p.And(v1, v1), "v1"},
		{p.Or(v1, v1), "v1"},
		{p.And(v1, v2), "v1∧v2"},
		{p.Or(v1, v2), "v1∨v2"},
		{p.Or(v1, p.Or(v2, v1)), "v1∨v2"},
		{p.And(p.And(v1, v2), v1), "v1∧v2"},
		{p.Or(p.And(v1, v2), p.And(v2, v1)), "v1∧v2"},
		{p.or(v1, False(), v2, v1, False()), "v1∨v2"},
		{p.and(v1, v2, False()), "false"},
	}
	for _, tc := range tests {
		if got := tc.got.String(); got != tc.want {
			t.Errorf("got %s, want %s", got, tc.want)
		}
	}
}

// TestKeyCanonical: the canonical key of a formula is its node — commutative
// variants are one pointer, distinct formulas are distinct pointers.
func TestKeyCanonical(t *testing.T) {
	p := newTestPool()
	a := p.Or(p.And(p.Var(1), p.Var(2)), p.Var(3))
	b := p.Or(p.Var(3), p.And(p.Var(2), p.Var(1)))
	if a != b {
		t.Fatalf("commutative variants are different nodes: %s vs %s", a, b)
	}
	c := p.Or(p.Var(3), p.And(p.Var(2), p.Var(4)))
	if a == c {
		t.Fatal("distinct formulas share a node")
	}
	if built, found := p.TableLookups(); built != 4 || found != 2 || p.TableSize() != 4 {
		t.Fatalf("built %d, found %d, table %d; want 4, 2, 4", built, found, p.TableSize())
	}
}

// TestStringOrder: what String shows does not depend on the order the nodes
// were built in, and is what the string-keyed implementation showed —
// composite operands first, variables by their decimal spelling.
func TestStringOrder(t *testing.T) {
	p := newTestPool()
	late := p.Or(p.Var(10), p.Var(2)) // v10 gets the lower node id
	early := p.And(p.Var(3), p.Var(1))
	if got := late.String(); got != "v10∨v2" {
		t.Errorf("got %s, want v10∨v2", got)
	}
	if got := p.and(p.Var(0), late, early).String(); got != "(v10∨v2)∧v0∧v1∧v3" {
		t.Errorf("got %s", got)
	}
	if got := p.or(p.Var(0), early, p.And(p.Var(1), p.Var(20))).String(); got != "v1∧v20∨v1∧v3∨v0" {
		t.Errorf("got %s", got)
	}
}

func TestRawKeepsDuplicates(t *testing.T) {
	v1 := refVar(1)
	f := refRawOr(v1, v1)
	if f.size != 2 {
		t.Fatalf("raw ∨ dropped the duplicate: %s (size %d)", f, f.size)
	}
	p := newTestPool()
	if g := p.Or(p.Var(1), p.Var(1)); g.Size() != 1 {
		t.Fatalf("Or kept the duplicate: %s", g)
	}
}

func TestAssign(t *testing.T) {
	p := newTestPool()
	f := p.And(p.Var(1), p.Or(p.Var(2), p.Var(3)))
	if got := p.Assign(f, 1, False()); !got.IsFalse() {
		t.Errorf("assign v1=false: got %s", got)
	}
	if got := p.Assign(f, 2, True()); got.String() != "v1" {
		t.Errorf("assign v2=true: got %s", got)
	}
	if got := p.Assign(f, 2, False()).String(); got != "v1∧v3" {
		t.Errorf("assign v2=false: got %s", got)
	}
	// Assignment by a formula (nested-qualifier binding).
	if got := p.Assign(f, 1, p.Var(9)).String(); got != "(v2∨v3)∧v9" {
		t.Errorf("assign v1=v9: got %s", got)
	}
	if got := p.Assign(f, 7, True()); got != f {
		t.Errorf("assigning an absent variable must be identity")
	}
}

// TestAssignSharesWork: a run of substitutions of one variable by one value
// visits each distinct node once, and a hit builds nothing.
func TestAssignSharesWork(t *testing.T) {
	p := newTestPool()
	shared := p.Or(p.Var(2), p.Var(3))
	f, g := p.And(p.Var(1), shared), p.And(p.Var(4), shared)
	want := p.Assign(f, 2, False())
	built, _ := p.TableLookups()
	for i := 0; i < 3; i++ {
		if got := p.Assign(f, 2, False()); got != want {
			t.Fatalf("memoised result differs: %s vs %s", got, want)
		}
	}
	if got := p.Assign(g, 2, False()).String(); got != "v3∧v4" {
		t.Errorf("got %s", got)
	}
	if after, _ := p.TableLookups(); after != built+1 {
		t.Errorf("built %d nodes for one new result", after-built)
	}
	// Another value starts another step: the memo must not leak into it.
	if got := p.Assign(f, 2, True()).String(); got != "v1" {
		t.Errorf("assign v2=true after v2=false: got %s", got)
	}
	if allocs := testing.AllocsPerRun(10, func() { p.Assign(f, 3, False()); p.Assign(g, 1, True()) }); allocs != 0 {
		t.Errorf("substitutions that find their results allocate %.0f times", allocs)
	}
}

func TestRestrict(t *testing.T) {
	p := newTestPool()
	odd, even := p.DeclareQualifier(nil), p.DeclareQualifier(nil)
	p.Fresh(even) // v0
	v1, v2, v3 := p.Fresh(odd), p.Fresh(even), p.Fresh(odd)
	f := p.And(p.Var(v1), p.Or(p.Var(v2), p.Var(v3)))
	if got := p.Restrict(f, odd, true); got.String() != "v1" {
		// v2 → true makes the disjunction true.
		t.Errorf("got %s", got)
	}
	if got := p.Restrict(f, odd, false); !got.IsTrue() {
		t.Errorf("negative filter: got %s", got)
	}
	if got := p.Restrict(p.And(p.Var(v2), p.Var(v3)), odd, false).String(); got != "v2" {
		t.Errorf("negative filter: got %s", got)
	}
	// The owner of a recycled id may change; Restrict must follow it.
	p.Release(v2)
	if v := p.Fresh(odd); v != v2 {
		t.Fatalf("expected id %d back, got %d", v2, v)
	}
	if got := p.Restrict(f, odd, true); got != f {
		t.Errorf("after v2 passed to the kept qualifier: got %s, want %s", got, f)
	}
}

// TestConstructorsFindWithoutAllocating: a constructor that arrives at a node
// built before allocates nothing.
func TestConstructorsFindWithoutAllocating(t *testing.T) {
	p := newTestPool()
	q := p.DeclareQualifier(nil)
	a, b, c := p.Var(p.Fresh(q)), p.Var(p.Fresh(q)), p.Var(p.Fresh(p.DeclareQualifier(nil)))
	work := func() {
		f := p.And(p.Or(a, b), c)
		f = p.Or(f, p.And(c, p.Or(b, a)))
		p.Restrict(f, q, true)
		p.FromVars([]VarID{2, 0})
	}
	work()
	size := p.TableSize()
	if allocs := testing.AllocsPerRun(10, work); allocs != 0 {
		t.Errorf("%.0f allocations per round on a warm table", allocs)
	}
	if p.TableSize() != size {
		t.Errorf("table grew from %d to %d on repeated work", size, p.TableSize())
	}
}

// TestTableDropsWhenIdle: the table is dropped, not trimmed, once it is over
// its size and no variable is live — and only then.
func TestTableDropsWhenIdle(t *testing.T) {
	p := newTestPool()
	q := p.DeclareQualifier(nil)
	held := p.Fresh(q)
	n := 0
	for n*(n-1)/2 <= tableDropSize {
		n++
	}
	vars := make([]VarID, n)
	for i := range vars {
		vars[i] = p.Fresh(q)
	}
	for i, v := range vars {
		for _, w := range vars[:i] {
			p.And(p.Var(v), p.Var(w))
		}
	}
	if p.TableSize() <= tableDropSize {
		t.Fatalf("table has %d nodes, want more than %d", p.TableSize(), tableDropSize)
	}
	before := p.And(p.Var(vars[0]), p.Var(vars[1]))
	for _, v := range vars {
		p.Release(v)
	}
	if p.Live() != 1 || p.TableSize() <= tableDropSize {
		t.Fatalf("live %d, table %d: dropped while a variable was live", p.Live(), p.TableSize())
	}
	p.Release(held)
	if p.Live() != 0 || p.TableSize() != 0 {
		t.Fatalf("live %d, table %d after the last release", p.Live(), p.TableSize())
	}
	after := p.And(p.Var(vars[0]), p.Var(vars[1]))
	if after == before || after.String() != before.String() || p.TableSize() != 1 {
		t.Fatalf("rebuilt node %s (table %d) must be a fresh twin of %s", after, p.TableSize(), before)
	}
	// A small table stays: dropping it would only rebuild it.
	v := p.Fresh(q)
	p.Release(v)
	if p.TableSize() != 1 {
		t.Fatalf("table of %d nodes was dropped below the threshold", p.TableSize())
	}
}

func TestEvalThreeValued(t *testing.T) {
	p := newTestPool()
	f := p.And(p.Var(1), p.Or(p.Var(2), p.Var(3)))
	lookup := func(m map[VarID]Value) func(VarID) Value {
		return func(v VarID) Value { return m[v] }
	}
	if got := f.Eval(lookup(map[VarID]Value{})); got != ValueUnknown {
		t.Errorf("all unknown: got %s", got)
	}
	if got := f.Eval(lookup(map[VarID]Value{1: ValueFalse})); got != ValueFalse {
		t.Errorf("v1 false: got %s", got)
	}
	if got := f.Eval(lookup(map[VarID]Value{1: ValueTrue, 2: ValueTrue})); got != ValueTrue {
		t.Errorf("v1,v2 true: got %s", got)
	}
	if got := f.Eval(lookup(map[VarID]Value{1: ValueTrue})); got != ValueUnknown {
		t.Errorf("v1 true only: got %s", got)
	}
}

func TestDNF(t *testing.T) {
	p := newTestPool()
	f := p.And(p.Or(p.Var(1), p.Var(2)), p.Var(3))
	got := f.DNF()
	want := [][]VarID{{1, 3}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if d := True().DNF(); len(d) != 1 || len(d[0]) != 0 {
		t.Fatalf("true DNF: %v", d)
	}
	if d := False().DNF(); d != nil {
		t.Fatalf("false DNF: %v", d)
	}
}

func TestVisitAndVarSet(t *testing.T) {
	p := newTestPool()
	f := p.And(p.Var(1), p.Or(p.Var(2), p.Var(1)))
	set := varSet(f)
	if len(set) != 2 || !set[1] || !set[2] {
		t.Fatalf("VarSet: %v", set)
	}
	if !f.HasVar(2) || f.HasVar(5) {
		t.Fatal("HasVar wrong")
	}
}

// randFormula builds a random formula over variables 0..4.
func randFormula(p testPool, r *rand.Rand, depth int) *Formula {
	if depth == 0 || r.Intn(3) == 0 {
		switch r.Intn(6) {
		case 0:
			return True()
		case 1:
			return False()
		default:
			return p.Var(VarID(r.Intn(5)))
		}
	}
	a := randFormula(p, r, depth-1)
	b := randFormula(p, r, depth-1)
	if r.Intn(2) == 0 {
		return p.And(a, b)
	}
	return p.Or(a, b)
}

// TestPropertyAssignAgreesWithEval: for any formula and total assignment,
// repeatedly assigning constants yields the same constant Eval computes.
func TestPropertyAssignAgreesWithEval(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	prop := func(seed int64, bits uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p := newTestPool()
		f := randFormula(p, r, 4)
		vals := map[VarID]Value{}
		g := f
		for v := VarID(0); v < 5; v++ {
			val := ValueFalse
			c := False()
			if bits&(1<<v) != 0 {
				val = ValueTrue
				c = True()
			}
			vals[v] = val
			g = p.Assign(g, v, c)
		}
		if !g.Determined() {
			return false
		}
		want := f.Eval(func(v VarID) Value { return vals[v] })
		return (want == ValueTrue) == g.IsTrue()
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDNFEquivalent: the DNF agrees with Eval on every assignment.
func TestPropertyDNFEquivalent(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := randFormula(newTestPool(), r, 3)
		dnf := f.DNF()
		for bits := 0; bits < 32; bits++ {
			val := func(v VarID) Value {
				if bits&(1<<v) != 0 {
					return ValueTrue
				}
				return ValueFalse
			}
			want := f.Eval(val) == ValueTrue
			got := false
			for _, disjunct := range dnf {
				all := true
				for _, v := range disjunct {
					if val(v) != ValueTrue {
						all = false
						break
					}
				}
				if all {
					got = true
					break
				}
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySizeNormalized: normalized pure-disjunctions of one variable
// stay size 1 no matter how often combined (the Remark V.1 behaviour).
func TestPropertySizeNormalized(t *testing.T) {
	p := newTestPool()
	f := p.Var(1)
	for i := 0; i < 100; i++ {
		f = p.Or(f, p.Var(1))
	}
	if f.Size() != 1 {
		t.Fatalf("normalized size grew to %d", f.Size())
	}
	g := refVar(1)
	for i := 0; i < 10; i++ {
		g = refRawOr(g, refVar(1))
	}
	if g.size != 11 {
		t.Fatalf("raw size: got %d, want 11", g.size)
	}
}

func TestPool(t *testing.T) {
	p := NewPool()
	inner := p.DeclareQualifier(nil)
	outer := p.DeclareQualifier([]QualID{inner})
	other := p.DeclareQualifier(nil)
	vi := p.Fresh(inner)
	vo := p.Fresh(outer)
	vx := p.Fresh(other)
	if !p.BelongsTo(vi, inner) || p.BelongsTo(vi, outer) {
		t.Fatal("BelongsTo wrong")
	}
	if !p.WithinSubtree(vi, outer) || !p.WithinSubtree(vo, outer) {
		t.Fatal("nested variable must be within the outer qualifier's subtree")
	}
	if p.WithinSubtree(vx, outer) || p.WithinSubtree(vo, inner) {
		t.Fatal("unrelated variables must not be within the subtree")
	}
	if p.Allocated() != 3 {
		t.Fatalf("Allocated: %d", p.Allocated())
	}
	p.Reset()
	if p.Allocated() != 0 || p.Qualifiers() != 3 {
		t.Fatal("Reset must clear variables but keep qualifiers")
	}
}

func TestValueString(t *testing.T) {
	if ValueTrue.String() != "true" || ValueFalse.String() != "false" || ValueUnknown.String() != "unknown" {
		t.Fatal("Value.String wrong")
	}
}

// nestedScopes replays, on the formula algebra alone, what d nested closure
// scopes do to an activation formula: a scope's formula is the disjunction of
// the enclosing scope's and of what it received, and what it received already
// contains the enclosing scope's formula (the transducer upstream propagates
// it too) beside the variable of the level's qualifier instance. The Remark
// V.1 ablation (E12) builds it with and without duplicate elimination.
func nestedScopes[F any](d int, variable func(VarID) F, or func(a, b F) F) F {
	scope := variable(0)
	for k := 1; k <= d; k++ {
		scope = or(scope, or(scope, variable(VarID(k))))
	}
	return scope
}

// TestFormulaNormalizationAblation: the normalized formula stays linear in
// the depth (Σnᵢ ≤ d), the raw one doubles with every level, and both mean
// the same.
func TestFormulaNormalizationAblation(t *testing.T) {
	const d = 12
	p := newTestPool()
	norm := nestedScopes(d, p.Var, p.Or)
	raw := nestedScopes(d, refVar, func(a, b *ref) *ref { return refRawOr(a, b) })
	if norm.Size() != d+1 {
		t.Errorf("normalized size %d, want d+1 = %d", norm.Size(), d+1)
	}
	if raw.size != 1<<(d+1)-1 {
		t.Errorf("raw size %d, want 2^(d+1)-1 = %d", raw.size, 1<<(d+1)-1)
	}
	for _, set := range []VarID{0, d / 2, d, d + 1} {
		val := func(v VarID) bool { return v == set }
		nv := norm.Eval(func(v VarID) Value {
			if val(v) {
				return ValueTrue
			}
			return ValueFalse
		})
		if raw.eval(val) != (nv == ValueTrue) {
			t.Errorf("ablation changed the meaning with only v%d true", set)
		}
	}
}

// BenchmarkAblationNormalization measures the Remark V.1 design choice —
// duplicate elimination in condition formulas — on nested closure scopes.
func BenchmarkAblationNormalization(b *testing.B) {
	const d = 12
	b.Run("normalized", func(b *testing.B) {
		p := newTestPool()
		for i := 0; i < b.N; i++ {
			nestedScopes(d, p.Var, p.Or)
		}
	})
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nestedScopes(d, refVar, func(a, b *ref) *ref { return refRawOr(a, b) })
		}
	})
}
