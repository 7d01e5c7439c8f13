package spexnet

import (
	"strings"
	"testing"

	"repro/internal/rpeq"
	"repro/internal/xmlstream"
)

// attrDoc document-order indexes: items@1, item@2, summary@3, item@4,
// summary@5, item@6, summary@7.
const attrDoc = `<items>` +
	`<item status="closed"><summary/></item>` +
	`<item status="open"><summary/></item>` +
	`<item status="closed" resolution="fixed"><summary/></item>` +
	`</items>`

func TestAttrPredicates(t *testing.T) {
	expect(t, `items.item[@status]`, attrDoc, "item@2", "item@4", "item@6")
	expect(t, `items.item[@status="closed"]`, attrDoc, "item@2", "item@6")
	expect(t, `items.item[@status!="closed"]`, attrDoc, "item@4")
	expect(t, `items.item[@status*="lose"]`, attrDoc, "item@2", "item@6")
	expect(t, `items.item[@resolution]`, attrDoc, "item@6")
	expect(t, `items.item[not(@resolution)]`, attrDoc, "item@2", "item@4")
	expect(t, `items.item[@status="closed" and @resolution]`, attrDoc, "item@6")
	expect(t, `items.item[@status="open" or @resolution]`, attrDoc, "item@4", "item@6")
	expect(t, `items.item[not(@status="closed" or @resolution)]`, attrDoc, "item@4")
	// @a != "v" is an existence test too: an attribute-free element fails it.
	expect(t, `items.item[@missing!="x"]`, attrDoc)
	// The motivating query: closed and unresolved items' summaries.
	expect(t, `items.item[@status="closed" and not(@resolution)].summary`, attrDoc, "summary@3")
}

func TestAttrPredicateInCondition(t *testing.T) {
	// doc indexes: r@1, p@2, p@3, t@4, p@5.
	doc := `<r><p x="1"/><p><t/></p><p/></r>`
	// Attribute term or structural term: a union inside the qualifier.
	expect(t, `r.p[@x or t]`, doc, "p@2", "p@3")
	// Attribute-tailed condition path tests the selected child.
	doc2 := `<r><p><t k="1"/></p><p><t/></p></r>`
	expect(t, `r.p[t.@k]`, doc2, "p@2")
	expect(t, `r.p[not(t.@k)]`, doc2, "p@4")
}

func TestAttrSelection(t *testing.T) {
	// Synthetic attribute nodes take the next document-order index, before
	// their element: @id@2 precedes a@3.
	expect(t, `r.a.@id`, `<r><a id="7"/><b id="8"/><a/></r>`, "@id@2")
	expect(t, `r._.@id`, `<r><a id="7"/><b id="8"/><a/></r>`, "@id@2", "@id@4")
	// The document root carries no attributes.
	expect(t, `@id`, `<r/>`)
}

func TestAttrSelectionSerialized(t *testing.T) {
	node, err := rpeq.Parse(`r.a.@id`)
	if err != nil {
		t.Fatal(err)
	}
	var got []Result
	net, err := Build(node, Options{Mode: ModeSerialize, Sink: func(r Result) { got = append(got, kept(r)) }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(xmlstream.NewScanner(strings.NewReader(`<r><a id="x&amp;y"/></r>`))); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d answers, want 1", len(got))
	}
	var b strings.Builder
	for _, ev := range got[0].Events {
		b.WriteString(ev.String())
	}
	if b.String() != `<@id>x&y</@id>` {
		t.Fatalf("serialized attribute answer = %s", b.String())
	}
}

func TestSerializeKeepsAttributes(t *testing.T) {
	node, err := rpeq.Parse(`r.a[@k="1"]`)
	if err != nil {
		t.Fatal(err)
	}
	var got []Result
	net, err := Build(node, Options{Mode: ModeSerialize, Sink: func(r Result) { got = append(got, kept(r)) }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(xmlstream.NewScanner(strings.NewReader(`<r><a k="1"><c n="2">t</c></a><a/></r>`))); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d answers, want 1", len(got))
	}
	var b strings.Builder
	for _, ev := range got[0].Events {
		b.WriteString(ev.String())
	}
	if b.String() != `<a k="1"><c n="2">t</c></a>` {
		t.Fatalf("serialized answer = %s", b.String())
	}
}

func TestNegatedQualifier(t *testing.T) {
	// doc indexes: r@1, a@2, b@3, a@4, c@5, a@6.
	doc := `<r><a><b/></a><a><c/></a><a/></r>`
	expect(t, `r.a[not(b)]`, doc, "a@4", "a@6")
	expect(t, `r.a[not(c)]`, doc, "a@2", "a@6")
	expect(t, `r.a[not(b|c)]`, doc, "a@6")
	expect(t, `r.a[not(_)]`, doc, "a@6")
	// Negation under conjunction and disjunction with positive terms.
	expect(t, `r.a[b and not(c)]`, doc, "a@2")
	expect(t, `r.a[not(b) and not(c)]`, doc, "a@6")
	expect(t, `r.a[c or not(_)]`, doc, "a@4", "a@6")
}

func TestNegatedQualifierNestedScopes(t *testing.T) {
	// Same-qualifier instances nest: the inner a has the b child, the outer
	// does not (b is its grandchild).
	expect(t, `_*.a[not(b)]`, `<a><a><b/></a></a>`, "a@1")
	expect(t, `_*.a[not(_*.b)]`, `<a><a><b/></a></a>`)
	expect(t, `_+.a[not(b)]`, `<r><a><a/></a></r>`, "a@2", "a@3")
}

func TestNegatedTextTest(t *testing.T) {
	// doc indexes: r@1, p@2, t@3, p@4, t@5, p@6.
	doc := `<r><p><t>v</t></p><p><t>w</t></p><p/></r>`
	expect(t, `r.p[t="v"]`, doc, "p@2")
	expect(t, `r.p[not(t="v")]`, doc, "p@4", "p@6")
	expect(t, `r.p[t and not(t="v")]`, doc, "p@4")
}

func TestNegationStaticallyFalse(t *testing.T) {
	// not(nullable) never holds: the candidate itself witnesses the
	// condition at its own start.
	expect(t, `r.a[not(b*)]`, `<r><a/><a><b/></a></r>`)
	expect(t, `r.a[not(%e)]`, `<r><a/></r>`)
}

func TestNegationDecidesEarly(t *testing.T) {
	// A killed instance resolves the moment the inner match starts, not at
	// scope exit: with an answer limit of 1 on a[not(b)], the second a (no b)
	// determines the answer even though the first a's scope is still open at
	// that point in a differently-shaped document. Here we just check limits
	// compose with negation.
	node, err := rpeq.Parse(`r.a[not(b)]`)
	if err != nil {
		t.Fatal(err)
	}
	var got []Result
	net, err := Build(node, Options{Mode: ModeNodes, Limit: 1, Sink: func(r Result) { got = append(got, kept(r)) }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(xmlstream.NewScanner(strings.NewReader(`<r><a><c/></a><a><b/></a></r>`))); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "a" {
		t.Fatalf("limited negation answers = %v", got)
	}
}
