package rpeq

import (
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	// Canonical renderings of parsed expressions.
	tests := []struct{ in, want string }{
		{"a", "a"},
		{"_", "_"},
		{"a.b", "(a.b)"},
		{"a.b.c", "((a.b).c)"},
		{"a|b", "(a|b)"},
		{"a.b|c", "((a.b)|c)"},
		{"a.(b|c)", "(a.(b|c))"},
		{"a+", "a+"},
		{"_*", "_*"},
		{"a?", "(a)?"},
		{"(a.b)?", "((a.b))?"},
		{"a[b]", "(a)[b]"},
		{"a[b][c]", "((a)[b])[c]"},
		{"a[b.c]", "(a)[(b.c)]"},
		{"_*.a[b].c", "((_*.(a)[b]).c)"},
		{"%e", "ε"},
		{"ε", "ε"},
		{"(a|%e)", "(a|ε)"},
		{"a [ b ] . c", "((a)[b].c)"},
	}
	for _, tc := range tests {
		n, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if got := Canonical(n); got != tc.want {
			t.Errorf("Parse(%q): got %s, want %s", tc.in, got, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", ".", "a.", ".a", "a..b", "a|", "|a", "(a", "a)", "a[b",
		"a]", "(a.b)+", "(a|b)*", "a++", "a+*", "+a", "*", "?",
		"a$b", "a{2}", "%x",
	}
	for _, src := range bad {
		if n, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) = %v, want error", src, n)
		}
	}
}

func TestParseReparse(t *testing.T) {
	// String output reparses to an equal tree.
	exprs := []string{
		"a", "a.b.c", "(a|b).c", "a+.c+", "_*.a[b].c", "a?", "a[b[c]].d",
		"(a|%e)", "_*._",
	}
	for _, src := range exprs {
		n1 := MustParse(src)
		n2, err := Parse(n1.String())
		if err != nil {
			t.Errorf("reparse of %q → %q: %v", src, n1.String(), err)
			continue
		}
		if !Equal(n1, n2) {
			t.Errorf("%q: reparse changed tree: %s vs %s", src, Canonical(n1), Canonical(n2))
		}
	}
}

func TestDesugar(t *testing.T) {
	// label* ≡ (label+ | ε), rpeq? ≡ (rpeq | ε).
	star := Desugar(MustParse("a*"))
	if Canonical(star) != "(a+|ε)" {
		t.Errorf("a*: got %s", Canonical(star))
	}
	opt := Desugar(MustParse("(a.b)?"))
	if Canonical(opt) != "((a.b)|ε)" {
		t.Errorf("(a.b)?: got %s", Canonical(opt))
	}
	// Desugared trees contain no Star or Optional.
	var check func(n Node) bool
	check = func(n Node) bool {
		switch n := n.(type) {
		case *Star, *Optional:
			return false
		case *Concat:
			return check(n.Left) && check(n.Right)
		case *Union:
			return check(n.Left) && check(n.Right)
		case *Qualifier:
			return check(n.Base) && check(n.Cond)
		}
		return true
	}
	if !check(Desugar(MustParse("_*.a[b?].c*"))) {
		t.Error("desugar left derived operators")
	}
}

func TestSizeAndAnalyze(t *testing.T) {
	n := MustParse("_*.a[b].c")
	// _* (2: star+label) . a (1) [ b (1) ] . c (1) + 2 concats + 1 qualifier = 8
	if n.Size() != 8 {
		t.Errorf("Size: got %d, want 8", n.Size())
	}
	s := Analyze(n)
	if s.Steps != 4 || s.Closures != 1 || s.Qualifiers != 1 || s.Unions != 0 {
		t.Errorf("Analyze: got %+v", s)
	}
	u := Analyze(MustParse("(a|b).c+"))
	if u.Unions != 1 || u.Closures != 1 || u.Steps != 3 {
		t.Errorf("Analyze union: got %+v", u)
	}
}

func TestLabelMatches(t *testing.T) {
	if !(&Label{Name: "_"}).Matches("anything") {
		t.Error("wildcard must match")
	}
	if (&Label{Name: "a"}).Matches("b") {
		t.Error("a must not match b")
	}
	if !(&Label{Name: "a"}).Matches("a") {
		t.Error("a must match a")
	}
}

func TestSizeLinearInLength(t *testing.T) {
	// Lemma V.1 precondition: parsing yields trees linear in input length.
	expr := "a"
	for i := 0; i < 9; i++ {
		expr = "(" + expr + "|" + expr + ")"
		if len(expr) > 4000 {
			break
		}
	}
	n, err := Parse(expr)
	if err != nil {
		t.Fatal(err)
	}
	if n.Size() > len(expr) {
		t.Fatalf("size %d exceeds source length %d", n.Size(), len(expr))
	}
}

func TestXPathTranslation(t *testing.T) {
	tests := []struct{ in, want string }{
		{"/a/b", "(a.b)"},
		{"a/b", "(a.b)"},
		{"//a", "(_*.a)"},
		{"/a//b", "(a.(_*.b))"},
		{"//*", "(_*._)"},
		{"/a[b]/c", "((a)[b].c)"},
		{"//a[b//c]", "((_*.a))[(b.(_*.c))]"},
		{"/a | //b", "(a|(_*.b))"},
		{"/a[b][c]", "((a)[b])[c]"},
	}
	for _, tc := range tests {
		n, err := Parse(tc.in, WithXPath())
		if err != nil {
			t.Errorf("Parse(%q, WithXPath): %v", tc.in, err)
			continue
		}
		if got := Canonical(n); got != tc.want {
			t.Errorf("Parse(%q, WithXPath): got %s, want %s", tc.in, got, tc.want)
		}
	}
}

func TestXPathErrors(t *testing.T) {
	for _, bad := range []string{"", "/", "//", "/a[", "/a]", "/a[b", "a//", "/a/", "a[]"} {
		if _, err := Parse(bad, WithXPath()); err == nil {
			t.Errorf("Parse(%q, WithXPath) unexpectedly succeeded", bad)
		}
	}
}

func TestEqual(t *testing.T) {
	pairs := [][2]string{{"a.b", "a.b"}, {"(a|b)", "(a|b)"}, {"a+", "a+"}}
	for _, p := range pairs {
		if !Equal(MustParse(p[0]), MustParse(p[1])) {
			t.Errorf("Equal(%q,%q) = false", p[0], p[1])
		}
	}
	diff := [][2]string{{"a", "b"}, {"a.b", "b.a"}, {"a+", "a*"}, {"a[b]", "a[c]"}, {"a|b", "b|a"}}
	for _, p := range diff {
		if Equal(MustParse(p[0]), MustParse(p[1])) {
			t.Errorf("Equal(%q,%q) = true", p[0], p[1])
		}
	}
}

func TestStringHasNoSpaces(t *testing.T) {
	n := MustParse(" a . b [ c ] ")
	if strings.ContainsAny(n.String(), " \t") {
		t.Errorf("String contains whitespace: %q", n.String())
	}
}
