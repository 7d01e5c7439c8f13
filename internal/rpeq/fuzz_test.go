package rpeq

import "testing"

// FuzzParse feeds arbitrary strings to the rpeq parser: no panics, and
// whatever parses must re-render to something that parses to an equal tree.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"a", "_*.a[b].c", "(a|b).c+", "a?.b*", "%e", "a[b[c]][d]",
		"a..b", "((((", "a[", "|", "a+*", "ε.a",
		`item[@s="x" and not(@r)]`, "a.@id", "a[not(b)]",
		"a[(b or c) and d]", "a[b.@x]", "a[@x or b]", "@",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Parse(src)
		if err != nil {
			return
		}
		n2, err := Parse(n.String())
		if err != nil {
			t.Fatalf("render of %q → %q does not reparse: %v", src, n.String(), err)
		}
		if !Equal(n, n2) {
			t.Fatalf("reparse of %q changed the tree: %s vs %s", src, Canonical(n), Canonical(n2))
		}
	})
}

// FuzzParseXPath checks the XPath front end never panics and always yields
// trees the rpeq compiler accepts (every construct is in the grammar).
func FuzzParseXPath(f *testing.F) {
	seeds := []string{
		"/a/b", "//a[b]/c", "//a/parent::b", "/a/b/ancestor::*",
		"a/..", "//*", "/a | //b", "self::a", "////", "[", "/a[../x]",
		`//item[@s="x" and not(@r)]/sum`, "//a/@id", "a[not(b)]",
		"a[(b or c) and @x]", "a[b/@x != 'v']", "//a/attribute::id",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Parse(src, WithXPath())
		if err != nil {
			return
		}
		// The resulting tree must round-trip through the rpeq syntax.
		if _, err := Parse(n.String()); err != nil {
			t.Fatalf("xpath %q produced unparseable rpeq %q: %v", src, n.String(), err)
		}
	})
}
