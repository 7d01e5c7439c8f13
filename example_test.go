package spex_test

import (
	"fmt"
	"strings"

	spex "repro"
)

// The paper's complete example (§III.10): _*.a[b].c over the document of
// Fig. 1 selects only the <c> whose parent <a> has a <b> child.
func ExampleCompile() {
	q := spex.MustCompile("_*.a[b].c")
	results, _ := q.EvaluateString(`<a><a><c>one</c></a><b/><c>two</c></a>`)
	for _, r := range results {
		fmt.Println(r.XML)
	}
	// Output: <c>two</c>
}

// The XPath front end covers the fragment the paper identifies plus
// backward axes, rewritten into forward rpeq.
func ExampleCompileXPath() {
	q, _ := spex.CompileXPath("//c/parent::a")
	n, _ := q.Count(strings.NewReader(`<a><a><c/></a><b/><c/></a>`))
	fmt.Println(n, "answers")
	// Output: 2 answers
}

// Matches reports each answer's document-order position, progressively.
func ExampleQuery_Matches() {
	q := spex.MustCompile("_*.c")
	q.Matches(strings.NewReader(`<a><a><c/></a><b/><c/></a>`), func(m spex.Match) {
		fmt.Printf("%s@%d\n", m.Name, m.Index)
	})
	// Output:
	// c@3
	// c@5
}

// Text-test qualifiers compare string values on the fly.
func ExampleQuery_Count() {
	q := spex.MustCompile(`catalog.book[lang = "en"]`)
	n, _ := q.Count(strings.NewReader(
		`<catalog><book><lang>en</lang></book><book><lang>de</lang></book></catalog>`))
	fmt.Println(n)
	// Output: 1
}

// MatchesDoc is the document-filtering decision (the SDI scenario):
// evaluation stops at the first answer.
func ExampleQuery_MatchesDoc() {
	q := spex.MustCompile("feed.msg[sport]")
	ok, _ := q.MatchesDoc(strings.NewReader(`<feed><msg><sport/></msg></feed>`))
	fmt.Println(ok)
	// Output: true
}

// A Set evaluates many queries in one pass through one shared network.
func ExampleNewSet() {
	queries := []*spex.Query{
		spex.MustCompile("a.b"),
		spex.MustCompile("a.b.c"), // shares the a.b prefix
	}
	set := spex.NewSet(queries, nil)
	set.Evaluate(strings.NewReader(`<a><b><c/></b></a>`))
	fmt.Println(set.Counts())
	// Output: [1 1]
}

// Stream is the push API for unbounded streams: answers surface while
// events keep arriving.
func ExampleQuery_Stream() {
	q := spex.MustCompile("exchange.tick[alert]")
	s, _ := q.Stream(func(m spex.Match) {
		fmt.Printf("alert at node %d\n", m.Index)
	})
	s.StartElement("exchange")
	s.StartElement("tick")
	s.StartElement("alert")
	s.EndElement("alert")
	s.EndElement("tick") // the answer is delivered here, mid-stream
	s.EndElement("exchange")
	s.Close()
	// Output: alert at node 2
}
