package baseline

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/dom"
	"repro/internal/rpeq"
)

// The following/preceding extension (§I: the prototype "supports also
// other XPath navigational capabilities, i.e. following and preceding") is
// validated against the tree-walk baseline, which implements the axes
// directly on the materialized tree.

func TestFollowingPrecedingAgainstDOM(t *testing.T) {
	queries := []string{
		"//a/following::b",
		"//a/following::*",
		"/a/b/following::c",
		"//b/preceding::a",
		"//c/preceding::*",
		"/a/following::a",
		"//a/preceding::a",
		// Continuations after the axis step.
		"//a/following::b/c",
	}
	var docs []string
	docs = append(docs,
		`<a><b><c/></b><b/><a><b><c/></b></a></a>`,
		`<x><a/><b/><a/><b/></x>`,
		`<a><a><a/></a></a>`,
		// Deep subtrees no step can enter, between contexts and matches: the
		// axis transducers go unvisited there and must pick up after them.
		`<x><q><q><q/></q></q><a><c/><b/><q><q/></q><c/></a><a/><q><c/></q><c/><b/></x>`,
	)
	for seed := uint64(50); seed < 85; seed++ {
		docs = append(docs, string(dataset.RandomTree(seed, 5, 3, []string{"a", "b", "c"}).Bytes()))
	}
	for _, doc := range docs {
		tree, err := dom.BuildString(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			expr, err := rpeq.Parse(q, rpeq.WithXPath())
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			want := indexList(TreeWalk{}.Eval(tree, expr))
			got, err := spexIndices(expr, doc)
			if err != nil {
				t.Fatalf("%s over %s: %v", q, doc, err)
			}
			if !equalInt64(got, want) {
				t.Errorf("%s over %s:\n spex %v\n walk %v", q, doc, got, want)
			}
		}
	}
}

// TestAxesInPredicatesRejected: following/preceding reach outside the
// candidate's subtree, which the scope-bound qualifier machinery cannot
// evaluate (a qualifier instance finalizes when its scope closes, before
// any following element arrives); the front end rejects such predicates
// with a clear error rather than computing a wrong answer.
func TestAxesInPredicatesRejected(t *testing.T) {
	for _, q := range []string{"//a[following::b]", "//b[preceding::a]"} {
		if _, err := rpeq.Parse(q, rpeq.WithXPath()); err == nil {
			t.Errorf("%s: expected an error", q)
		}
	}
}

// TestFollowingExcludesDescendantsAndAncestors pins the axis semantics on a
// known tree.
func TestFollowingExcludesDescendantsAndAncestors(t *testing.T) {
	// Indices: a@1 b@2 c@3 d@4 e@5.
	doc := `<a><b><c/></b><d><e/></d></a>`
	expr := rpeq.MustParseXPath("//b/following::*")
	got, err := spexIndices(expr, doc)
	if err != nil {
		t.Fatal(err)
	}
	// Following b@2: d@4 and e@5 (c@3 is b's descendant; a@1 its ancestor).
	want := []int64{4, 5}
	if !equalInt64(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestPrecedingExcludesAncestors pins the mirror case.
func TestPrecedingExcludesAncestors(t *testing.T) {
	doc := `<a><b><c/></b><d><e/></d></a>`
	expr := rpeq.MustParseXPath("//e/preceding::*")
	got, err := spexIndices(expr, doc)
	if err != nil {
		t.Fatal(err)
	}
	// Preceding e@5: b@2 and c@3 (a@1 and d@4 are ancestors).
	want := []int64{2, 3}
	if !equalInt64(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestPrecedingProgressiveDrop: preceding-axis candidates that never see a
// context are dropped at end of stream, and candidates are answered as soon
// as a context arrives.
func TestPrecedingProgressiveDrop(t *testing.T) {
	doc := `<x><b/><a/><b/></x>`
	expr := rpeq.MustParseXPath("//a/preceding::b")
	got, err := spexIndices(expr, doc)
	if err != nil {
		t.Fatal(err)
	}
	// Only the first b precedes the a; the second b follows it.
	want := []int64{2}
	if !equalInt64(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}
