package spexnet

import (
	"strings"
	"testing"

	"repro/internal/rpeq"
	"repro/internal/xmlstream"
)

// kept detaches an answer from the candidate record that delivered it, so a
// test may read it after the sink has returned.
func kept(r Result) Result {
	evs := make([]xmlstream.Event, len(r.Events))
	for i, ev := range r.Events {
		evs[i] = ev.Clone()
	}
	r.Events = evs
	return r
}

// runSerializeStats evaluates in ModeSerialize and returns (results, stats).
func runSerializeStats(t *testing.T, expr, doc string) ([]Result, Stats) {
	t.Helper()
	var results []Result
	net, err := Build(rpeq.MustParse(expr), Options{Mode: ModeSerialize, Sink: func(r Result) {
		results = append(results, kept(r))
	}})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := net.Run(xmlstream.NewScanner(strings.NewReader(doc)))
	if err != nil {
		t.Fatal(err)
	}
	return results, stats
}

// TestOutputDocumentOrderBlocking: an early undetermined candidate must
// hold back later already-determined ones until it resolves, and the final
// order must be document order.
func TestOutputDocumentOrderBlocking(t *testing.T) {
	// x[q].y and plain z: the y candidates under x wait for q; the z
	// candidate is determined immediately but comes later in document
	// order... construct the opposite: undetermined BEFORE determined.
	doc := `<r><x><y/><w/></x><z/></r>`
	// Query (r.x[w].y | r.z): y@3 depends on w@4 (future), z@5 immediate.
	var order []int64
	net, err := Build(rpeq.MustParse("(r.x[w].y|r.z)"), Options{Mode: ModeNodes, Sink: func(r Result) {
		order = append(order, r.Index)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(xmlstream.NewScanner(strings.NewReader(doc))); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 3 || order[1] != 5 {
		t.Fatalf("order: %v, want [3 5]", order)
	}
}

// TestOutputRejectedReleasesBuffer: rejected candidates free their content
// immediately; the buffer high-water mark reflects that.
func TestOutputRejectedReleasesBuffer(t *testing.T) {
	// x[q].y with no q anywhere: all y candidates are rejected at </x>.
	var doc strings.Builder
	doc.WriteString("<r>")
	for i := 0; i < 50; i++ {
		doc.WriteString("<x><y><payload>data</payload></y></x>")
	}
	doc.WriteString("</r>")
	results, stats := runSerializeStats(t, "r.x[q].y", doc.String())
	if len(results) != 0 {
		t.Fatalf("results: %d, want 0", len(results))
	}
	if stats.Output.Dropped != 50 {
		t.Fatalf("dropped: %d, want 50", stats.Output.Dropped)
	}
	// Each candidate holds at most its own subtree (5 events) before its
	// rejection at </x>; buffers must not accumulate across candidates.
	if stats.Output.MaxBufferedEvs > 8 {
		t.Fatalf("buffered %d events; rejected candidates must release buffers", stats.Output.MaxBufferedEvs)
	}
}

// TestOutputSerializeNestedContent: nested answers receive their full
// (distinct) subtrees even while overlapping.
func TestOutputSerializeNestedContent(t *testing.T) {
	results, _ := runSerializeStats(t, "_*.a", `<a>1<a>2</a>3</a>`)
	if len(results) != 2 {
		t.Fatalf("results: %d", len(results))
	}
	if got := xmlstream.Serialize(results[0].Events); got != "<a>1<a>2</a>3</a>" {
		t.Fatalf("outer: %q", got)
	}
	if got := xmlstream.Serialize(results[1].Events); got != "<a>2</a>" {
		t.Fatalf("inner: %q", got)
	}
}

// TestOutputWholeDocumentResult: the ε query selects the document node; its
// serialization is the whole document.
func TestOutputWholeDocumentResult(t *testing.T) {
	results, _ := runSerializeStats(t, "%e", `<a><b>x</b></a>`)
	if len(results) != 1 || results[0].Index != 0 || results[0].Name != "$" {
		t.Fatalf("results: %+v", results)
	}
	if got := xmlstream.Serialize(results[0].Events); got != "<a><b>x</b></a>" {
		t.Fatalf("got %q", got)
	}
}

// TestStepErrors: unbalanced streams are rejected mid-flight.
func TestStepErrors(t *testing.T) {
	net, err := Build(rpeq.MustParse("a"), Options{Mode: ModeCount})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Step(xmlstream.Event{Kind: xmlstream.StartDocument}); err != nil {
		t.Fatal(err)
	}
	if err := net.Step(xmlstream.End("a")); err == nil {
		t.Fatal("unbalanced end must fail")
	}
}

// TestFinishUnclosed: Finish rejects streams with open elements.
func TestFinishUnclosed(t *testing.T) {
	net, err := Build(rpeq.MustParse("a"), Options{Mode: ModeCount})
	if err != nil {
		t.Fatal(err)
	}
	net.Step(xmlstream.Event{Kind: xmlstream.StartDocument})
	net.Step(xmlstream.Start("a"))
	if err := net.Finish(); err == nil {
		t.Fatal("Finish with open elements must fail")
	}
}

// TestDeepUnionOrderAndDedup: a union with overlapping branches yields each
// node once, in document order (the join's duplicate elimination, §III.7).
func TestDeepUnionOrderAndDedup(t *testing.T) {
	doc := `<a><b><c/></b><c/></a>`
	// Branch overlap: _*.c and a._.c both select c@3.
	var got []int64
	net, err := Build(rpeq.MustParse("(_*.c|a._.c)"), Options{Mode: ModeNodes, Sink: func(r Result) {
		got = append(got, r.Index)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(xmlstream.NewScanner(strings.NewReader(doc))); err != nil {
		t.Fatal(err)
	}
	want := []int64{3, 4}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestTextPreservedInResults: character data flows through the network and
// into serialized answers untouched.
func TestTextPreservedInResults(t *testing.T) {
	results, _ := runSerializeStats(t, "a.b", `<a><b>x &amp; y</b></a>`)
	if len(results) != 1 {
		t.Fatalf("results: %d", len(results))
	}
	if got := xmlstream.Serialize(results[0].Events); got != "<b>x &amp; y</b>" {
		t.Fatalf("got %q", got)
	}
}
