package rpeq

import (
	"testing"
)

// The reverse-axis rewriting is validated two ways: structurally here, and
// semantically against a direct DOM implementation of the axes in
// internal/baseline's reverse_axis_test.go (which can evaluate both sides).

func mustXPath(t *testing.T, src string) Node {
	t.Helper()
	n, err := Parse(src, WithXPath())
	if err != nil {
		t.Fatalf("Parse(%q, WithXPath): %v", src, err)
	}
	return n
}

func TestParentRewriteShapes(t *testing.T) {
	tests := []struct{ in, want string }{
		// parents of b-children of a-children: the a nodes having a b child.
		{"/a/b/parent::*", "(a)[b]"},
		{"/a/b/..", "(a)[b]"},
		// label test on the parent must match the prefix endpoint.
		{"/a/b/parent::a", "(a)[b]"},
		// wildcard prefix endpoint specializes to the test.
		{"/*/b/parent::c", "(c)[b]"},
		// parents of descendant a nodes: any b node with an a child.
		{"//a/parent::b", "(_*.b)[a]"},
	}
	for _, tc := range tests {
		got := mustXPath(t, tc.in)
		want := MustParse(tc.want)
		if !Equal(got, want) {
			t.Errorf("%s:\n got  %s\n want %s", tc.in, Canonical(got), Canonical(want))
		}
	}
}

func TestParentRewriteErrors(t *testing.T) {
	bad := []string{
		"/..",             // escapes the root
		"/parent::a",      // likewise
		"/ancestor::a",    // likewise
		"/a/b/parent::c",  // label c can never equal prefix endpoint b... (a≠c)
		"/a[b/../c]",      // reverse step reaches the predicate context
		"/a[ancestor::b]", // likewise, at predicate start
		"/a/self::b",      // self test conflicts with the step label
	}
	for _, src := range bad {
		if n, err := Parse(src, WithXPath()); err == nil {
			t.Errorf("Parse(%q, WithXPath) = %s, want error", src, n)
		}
	}
}

func TestSelfAndDescendantAxes(t *testing.T) {
	tests := []struct{ in, want string }{
		{"/a/self::a", "a"},
		{"/a/self::*", "a"},
		{"/a/.", "a"},
		{"/descendant::a", "_*.a"},
		{"/a/descendant::b", "a.(_*.b)"},
		{"/a/descendant-or-self::*", "a._*"},
		{"/a/descendant-or-self::a", "(a.(_*.a)|a)"},
	}
	for _, tc := range tests {
		got := mustXPath(t, tc.in)
		want := MustParse(tc.want)
		if !Equal(got, want) {
			t.Errorf("%s:\n got  %s\n want %s", tc.in, Canonical(got), Canonical(want))
		}
	}
}

func TestAncestorRewriteSelectsPrefixes(t *testing.T) {
	// ancestors of /a/b/c nodes: the a's (with b.c below) and the b's
	// (with c below); order of union branches follows split order.
	got := mustXPath(t, "/a/b/c/ancestor::*")
	want := MustParse("(a)[b.c] | (a.b)[c]")
	if !Equal(got, want) {
		t.Fatalf("got %s, want %s", Canonical(got), Canonical(want))
	}
	// With a label test only matching one prefix endpoint.
	got = mustXPath(t, "/a/b/c/ancestor::b")
	want = MustParse("(a.b)[c]")
	if !Equal(got, want) {
		t.Fatalf("got %s, want %s", Canonical(got), Canonical(want))
	}
}

func TestAncestorOrSelf(t *testing.T) {
	got := mustXPath(t, "/a/b/ancestor-or-self::b")
	// ancestor part: no b-labeled prefix endpoint... the a endpoint is not
	// b, so only the self part (a.b) remains.
	want := MustParse("a.b")
	if !Equal(got, want) {
		t.Fatalf("got %s, want %s", Canonical(got), Canonical(want))
	}
}

func TestSplitsRespectQualifiers(t *testing.T) {
	// parents of b[q]-children: the qualifier must travel with the child
	// step into the parent's condition.
	got := mustXPath(t, "/a/b[c]/parent::*")
	want := MustParse("a[b[c]]")
	if !Equal(got, want) {
		t.Fatalf("got %s, want %s", Canonical(got), Canonical(want))
	}
}

func TestNullable(t *testing.T) {
	cases := map[string]bool{
		"a":      false,
		"a*":     true,
		"a?":     true,
		"a.b":    false,
		"a*.b*":  true,
		"(a|b?)": true,
		"a+":     false,
		"%e":     true,
	}
	for src, want := range cases {
		if got := nullable(MustParse(src)); got != want {
			t.Errorf("nullable(%s) = %v, want %v", src, got, want)
		}
	}
}

func TestRestrictLabel(t *testing.T) {
	cases := []struct{ expr, test, want string }{
		{"a", "a", "a"},
		{"_", "a", "a"},
		{"a.b", "b", "a.b"},
		{"a._", "b", "a.b"},
		{"(a|b)", "a", "a"},
		{"_+", "a", "_*.a"},
		{"a+", "a", "a+"},
		{"a[q]", "a", "a[q]"},
		{"a.b?", "b", "a.b"},
		{"a.b?", "a", "a"}, // ε-matching b? leaves the a endpoint
	}
	for _, tc := range cases {
		got := restrictLabel(MustParse(tc.expr), tc.test)
		if got == nil {
			t.Errorf("restrictLabel(%s, %s) = nil", tc.expr, tc.test)
			continue
		}
		if want := MustParse(tc.want); !Equal(got, want) {
			t.Errorf("restrictLabel(%s, %s) = %s, want %s", tc.expr, tc.test, Canonical(got), Canonical(want))
		}
	}
	if got := restrictLabel(MustParse("a"), "b"); got != nil {
		t.Errorf("restrictLabel(a, b) = %v, want nil", got)
	}
	if got := restrictLabel(MustParse("a.b"), "a"); got != nil {
		t.Errorf("restrictLabel(a.b, a) = %v, want nil", got)
	}
}
