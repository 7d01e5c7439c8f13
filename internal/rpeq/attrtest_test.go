package rpeq

import (
	"strings"
	"testing"
)

// TestParseAttrSurface checks the parse-and-lower results of the attribute
// surface via Canonical, for both front ends.
func TestParseAttrSurface(t *testing.T) {
	tests := []struct {
		src   string
		xpath bool
		want  string // Canonical rendering
	}{
		// Spine filters: attribute predicates lower to a self-filter after
		// the step, not to qualifier machinery.
		{`item[@status]`, false, `(item.{@status})`},
		{`item[@status="closed"]`, false, `(item.{@status="closed"})`},
		{`item[@status!="open"]`, false, `(item.{@status!="open"})`},
		{`item[@status*="clo"]`, false, `(item.{@status*="clo"})`},
		{`item[not(@resolution)]`, false, `(item.{not(@resolution)})`},
		{`item[@a and @b]`, false, `(item.{@a and @b})`},
		{`item[@a or @b]`, false, `(item.{@a or @b})`},
		{`item[@a="x" and not(@b)]`, false, `(item.{@a="x" and not(@b)})`},
		// De Morgan pushes negation to the leaves.
		{`item[not(@a and @b)]`, false, `(item.{not(@a) or not(@b)})`},
		{`item[not(not(@a))]`, false, `(item.{@a})`},
		// Mixed conditions: attribute conjuncts merge into one spine
		// filter, the rest stay qualifiers.
		{`item[@a and b]`, false, `((item.{@a}))[b]`},
		{`item[b and @a]`, false, `((item.{@a}))[b]`},
		{`item[@a or b]`, false, `(item)[({@a}|b)]`},
		// Attribute-tailed condition paths test the selected element.
		{`item[b.@id]`, false, `(item)[(b.{@id})]`},
		{`item[b.@id="7"]`, false, `(item)[(b.{@id="7"})]`},
		// Negated structural conditions.
		{`item[not(b)]`, false, `(item)[!(b)]`},
		{`item[not(b.c)]`, false, `(item)[!((b.c))]`},
		{`item[not(b="v")]`, false, `(item)[!((b="v"))]`},
		// Trailing attribute selection.
		{`@id`, false, `@id`},
		{`item.@id`, false, `(item.@id)`},
		{`_*.item.@id`, false, `((_*.item).@id)`},
		// The motivating query of the attribute pipeline.
		{`items.item[@status="closed" and not(@resolution)].summary`, false,
			`((items.(item.{@status="closed" and not(@resolution)})).summary)`},
		// XPath front end.
		{`//item[@id="1"]`, true, `((_*.item).{@id="1"})`},
		{`//item/@id`, true, `((_*.item).@id)`},
		{`//item/attribute::id`, true, `((_*.item).@id)`},
		{`a//@id`, true, `(a.(_*.@id))`},
		{`a[b/@x]`, true, `(a)[(b.{@x})]`},
		{`a[not(@x)]`, true, `(a.{not(@x)})`},
		{`a[b and not(c)]`, true, `((a)[b])[!(c)]`},
		{`a[(b or c) and @x]`, true, `((a.{@x}))[(b|c)]`},
		{`items/item[@status="closed" and not(@resolution)]/summary`, true,
			`(((items.item).{@status="closed" and not(@resolution)}).summary)`},
		// 'not' and the keywords stay ordinary labels elsewhere.
		{`a[not]`, false, `(a)[not]`},
		{`a[and]`, false, `(a)[and]`},
		{`not.and.or`, false, `((not.and).or)`},
		{`a[not]`, true, `(a)[not]`},
	}
	for _, tc := range tests {
		var opts []ParseOption
		if tc.xpath {
			opts = append(opts, WithXPath())
		}
		n, err := Parse(tc.src, opts...)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.src, err)
			continue
		}
		if got := Canonical(n); got != tc.want {
			t.Errorf("Parse(%q) = %s, want %s", tc.src, got, tc.want)
		}
	}
}

// TestParseAttrErrors checks the attribute placement and negation rules.
func TestParseAttrErrors(t *testing.T) {
	tests := []struct {
		src   string
		xpath bool
		frag  string // required error substring
	}{
		{`item.@id.b`, false, "final step"},
		{`(a.@id)|b`, false, "final step"},
		{`a[@x].@id.c`, false, "final step"},
		{`(a.@id)?`, false, "final step"},
		{`a[not(b[c])]`, false, "cannot negate"},
		{`a[not(b[@x and c])]`, false, "cannot negate"},
		{`@`, false, "attribute name"},
		{`//a/@id/b`, true, "final step"},
		{`//a/@id[b]`, true, "final step"},
		{`a[not(b[c])]`, true, "cannot negate"},
		{`//@*`, true, "attribute::*"},
		{`//a/@id/parent::x`, true, "not supported"},
	}
	for _, tc := range tests {
		var opts []ParseOption
		if tc.xpath {
			opts = append(opts, WithXPath())
		}
		_, err := Parse(tc.src, opts...)
		if err == nil {
			t.Errorf("Parse(%q): expected error containing %q, got none", tc.src, tc.frag)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("Parse(%q): error %q does not contain %q", tc.src, err, tc.frag)
		}
	}
}

// TestAttrNegatableAllowed: negation accepts qualifier-free conditions,
// including attribute-filtered and text-tested paths.
func TestAttrNegatableAllowed(t *testing.T) {
	for _, src := range []string{
		`a[not(b[@x])]`,   // inner attr predicate lowers to a filter, not a qualifier
		`a[not(b.@x)]`,    // attribute-tailed path
		`a[not(b="v")]`,   // text test
		`a[not(b|c)]`,     // union
		`a[not(b.c.d)]`,   // chain
		`a[not(b and c)]`, // De Morgan: or of negations
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

// TestParseOptionAPI: the options of the one Parse entry point compose — the
// limit clause is only a clause under WithLimit, in either surface syntax.
func TestParseOptionAPI(t *testing.T) {
	var limit int64
	n, err := Parse(`_*.item limit 3`, WithLimit(&limit))
	if err != nil || limit != 3 {
		t.Fatalf("WithLimit: %v limit=%d", err, limit)
	}
	if !Equal(n, MustParse(`_*.item`)) {
		t.Fatalf("WithLimit changed the expression: %s", Canonical(n))
	}
	// Without WithLimit the clause is a path.
	plain := MustParse(`a.limit`)
	if Canonical(plain) != `(a.limit)` {
		t.Fatalf("limit keyword leaked: %s", Canonical(plain))
	}
	x1, err := Parse(`//item[@a]`, WithXPath())
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(x1, MustParseXPath(`//item[@a]`)) {
		t.Fatalf("MustParseXPath disagrees with Parse(WithXPath)")
	}
	var xl int64
	x3, err := Parse(`//item first`, WithXPath(), WithLimit(&xl))
	if err != nil || xl != 1 {
		t.Fatalf("xpath first: %v limit=%d", err, xl)
	}
	if !Equal(x3, MustParseXPath(`//item`)) {
		t.Fatalf("WithLimit changed the XPath expression: %s", Canonical(x3))
	}
}

// TestAttrExprEval exercises the formula evaluator directly.
func TestAttrExprEval(t *testing.T) {
	attrs := map[string]string{"status": "closed", "id": "i7"}
	get := func(name string) (string, bool) { v, ok := attrs[name]; return v, ok }
	cases := []struct {
		e    AttrExpr
		want bool
	}{
		{&AttrLeaf{Name: "status", Op: AttrExists}, true},
		{&AttrLeaf{Name: "missing", Op: AttrExists}, false},
		{&AttrLeaf{Name: "status", Op: AttrEq, Value: "closed"}, true},
		{&AttrLeaf{Name: "status", Op: AttrEq, Value: "open"}, false},
		{&AttrLeaf{Name: "status", Op: AttrNeq, Value: "open"}, true},
		{&AttrLeaf{Name: "missing", Op: AttrNeq, Value: "open"}, false}, // absent: != is an existence test too
		{&AttrLeaf{Name: "id", Op: AttrContains, Value: "7"}, true},
		{&AttrNot{Expr: &AttrLeaf{Name: "missing", Op: AttrExists}}, true},
		{&AttrAnd{Left: &AttrLeaf{Name: "status", Op: AttrEq, Value: "closed"}, Right: &AttrNot{Expr: &AttrLeaf{Name: "resolution", Op: AttrExists}}}, true},
		{&AttrOr{Left: &AttrLeaf{Name: "missing", Op: AttrExists}, Right: &AttrLeaf{Name: "id", Op: AttrExists}}, true},
	}
	for i, tc := range cases {
		if got := tc.e.Eval(get); got != tc.want {
			t.Errorf("case %d (%s): got %v, want %v", i, tc.e, got, tc.want)
		}
	}
}

// TestAttrStringRoundTrip: String() of attribute-bearing trees reparses to
// an equal tree (the property FuzzParse checks for arbitrary inputs).
func TestAttrStringRoundTrip(t *testing.T) {
	for _, src := range []string{
		`item[@status="closed" and not(@resolution)]`,
		`item[@a and b]`,
		`item[@a or b]`,
		`item[not(@a and @b) and @c]`,
		`a[not(b)]`,
		`a[b and c or d]`,
		`_*.item.@id`,
		`a[(b or c) and d]`,
	} {
		n := MustParse(src)
		n2, err := Parse(n.String())
		if err != nil {
			t.Errorf("%q → %q does not reparse: %v", src, n.String(), err)
			continue
		}
		if !Equal(n, n2) {
			t.Errorf("%q → %q reparses differently: %s vs %s", src, n.String(), Canonical(n), Canonical(n2))
		}
	}
}

// TestHasAttrTest covers the analysis entry point used for scanner wiring.
func TestHasAttrTest(t *testing.T) {
	if !HasAttrTest(MustParse(`a[@x]`)) {
		t.Error("a[@x] should report attribute use")
	}
	if !HasAttrTest(MustParse(`a.@x`)) {
		t.Error("a.@x should report attribute use")
	}
	if !HasAttrTest(MustParse(`a[not(b.@x)]`)) {
		t.Error("a[not(b.@x)] should report attribute use")
	}
	if HasAttrTest(MustParse(`a[b="v"]`)) {
		t.Error("a[b=\"v\"] should not report attribute use")
	}
}
