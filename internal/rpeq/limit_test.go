package rpeq

import "testing"

func TestParseLimitClause(t *testing.T) {
	cases := []struct {
		src   string
		expr  string // canonical form of the expression part
		limit int64
	}{
		{"a.b", "a.b", 0},
		{"a.b limit 3", "a.b", 3},
		{"a.b first", "a.b", 1},
		{"_*.Topic.Title limit 1", "_*.Topic.Title", 1},
		{"a[b].c limit 42", "a[b].c", 42},
		// `limit` and `first` stay ordinary labels everywhere except the
		// trailing clause position.
		{"limit.first", "limit.first", 0},
		{"a.limit", "a.limit", 0},
		{"first[limit]", "first[limit]", 0},
		{"a.first limit 2", "a.first", 2},
	}
	for _, tc := range cases {
		var limit int64
		n, err := Parse(tc.src, WithLimit(&limit))
		if err != nil {
			t.Errorf("Parse(%q, WithLimit): %v", tc.src, err)
			continue
		}
		if limit != tc.limit {
			t.Errorf("Parse(%q, WithLimit) limit = %d, want %d", tc.src, limit, tc.limit)
		}
		want := MustParse(tc.expr)
		if Canonical(n) != Canonical(want) {
			t.Errorf("Parse(%q, WithLimit) expr = %s, want %s", tc.src, Canonical(n), Canonical(want))
		}
	}
}

func TestParseLimitClauseErrors(t *testing.T) {
	for _, src := range []string{
		"a limit 0",   // a limit must select at least one answer
		"a limit",     // missing count
		"a limit b",   // count must be a number
		"a limit 2 3", // trailing junk
		"a first 2",   // first takes no argument
		"a first limit 2",
		"limit 3", // no expression
	} {
		var limit int64
		if _, err := Parse(src, WithLimit(&limit)); err == nil {
			t.Errorf("Parse(%q, WithLimit) succeeded, want error", src)
		}
	}
}

// TestPlainParseRejectsLimitClause pins backwards compatibility: the plain
// parser's grammar is unchanged, so an embedded limit clause stays a syntax
// error for callers that never opted into limits.
func TestPlainParseRejectsLimitClause(t *testing.T) {
	for _, src := range []string{"a limit 3", "a.b first"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseXPathLimitClause(t *testing.T) {
	cases := []struct {
		src   string
		plain string // equivalent XPath without the clause
		limit int64
	}{
		{"//a/b", "//a/b", 0},
		{"//a/b limit 5", "//a/b", 5},
		{"//a/b first", "//a/b", 1},
		{"//Topic[editor]/Title limit 1", "//Topic[editor]/Title", 1},
	}
	for _, tc := range cases {
		var limit int64
		n, err := Parse(tc.src, WithXPath(), WithLimit(&limit))
		if err != nil {
			t.Errorf("Parse(%q, WithXPath, WithLimit): %v", tc.src, err)
			continue
		}
		if limit != tc.limit {
			t.Errorf("Parse(%q, WithXPath, WithLimit) limit = %d, want %d", tc.src, limit, tc.limit)
		}
		want, err := Parse(tc.plain, WithXPath())
		if err != nil {
			t.Fatalf("Parse(%q, WithXPath): %v", tc.plain, err)
		}
		if Canonical(n) != Canonical(want) {
			t.Errorf("Parse(%q, WithXPath, WithLimit) expr = %s, want %s", tc.src, Canonical(n), Canonical(want))
		}
	}
}

func TestParseXPathLimitClauseErrors(t *testing.T) {
	for _, src := range []string{
		"//a limit 0",
		"//a limit",
		"//a limit x",
		"//a first 1",
		"//a limit 99999999999999999999", // overflow
	} {
		var limit int64
		if _, err := Parse(src, WithXPath(), WithLimit(&limit)); err == nil {
			t.Errorf("Parse(%q, WithXPath, WithLimit) succeeded, want error", src)
		}
	}
}

func TestNullableExported(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"a", false},
		{"a*", true},
		{"a?", true},
		{"a+", false},
		{"a.b", false},
		{"a*.b*", true},
		{"a*.b", false},
		{"a|b", false},
		{"a|b*", true},
		{"_*", true},
		{"a*[b]", false}, // qualifier condition b is not nullable
		{"a*[b*]", true}, // both base and condition nullable
		{"a?[b?]", true},
	}
	for _, tc := range cases {
		n, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.src, err)
		}
		if got := Nullable(n); got != tc.want {
			t.Errorf("Nullable(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
	// Following/Preceding/TextTest are structurally non-empty by definition.
	if Nullable(&Following{Test: "a"}) || Nullable(&Preceding{Test: "a"}) {
		t.Error("Following/Preceding must not be nullable")
	}
	if Nullable(&TextTest{Path: MustParse("a"), Op: TextEq, Value: "v"}) {
		t.Error("TextTest must not be nullable")
	}
	if !Nullable(&Empty{}) {
		t.Error("Empty must be nullable")
	}
}
