package spexnet

import (
	"strings"
	"testing"

	"repro/internal/rpeq"
	"repro/internal/xmlstream"
)

// runStream evaluates expr over doc in ModeStream, reassembling each
// answer's serialization, and returns the answers plus the stats.
func runStream(t *testing.T, expr, doc string) ([]string, Stats) {
	t.Helper()
	var results []string
	var current strings.Builder
	sink := NewStreamSink(
		func(int64, string) { current.Reset() },
		func(ev xmlstream.Event) {
			switch ev.Kind {
			case xmlstream.StartElement:
				current.WriteString("<" + ev.Name + ">")
			case xmlstream.EndElement:
				current.WriteString("</" + ev.Name + ">")
			case xmlstream.Text:
				current.WriteString(ev.Data)
			}
		},
		func(int64) { results = append(results, current.String()) },
	)
	net, err := Build(rpeq.MustParse(expr), Options{Mode: ModeStream, StreamSink: sink})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := net.Run(xmlstream.NewScanner(strings.NewReader(doc)))
	if err != nil {
		t.Fatal(err)
	}
	return results, stats
}

// runSerialize is the ModeSerialize reference.
func runSerialize(t *testing.T, expr, doc string) []string {
	t.Helper()
	var results []string
	net, err := Build(rpeq.MustParse(expr), Options{Mode: ModeSerialize, Sink: func(r Result) {
		results = append(results, xmlstream.Serialize(r.Events))
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(xmlstream.NewScanner(strings.NewReader(doc))); err != nil {
		t.Fatal(err)
	}
	return results
}

// TestStreamModeMatchesSerialize: the streaming sink reassembles exactly
// what serialize mode reports, on nested, qualified and unioned queries.
func TestStreamModeMatchesSerialize(t *testing.T) {
	docs := []string{
		`<a><a><c>x</c></a><b/><c>y</c></a>`,
		`<a><b>one</b><b>two</b></a>`,
		`<r><a><a><a/></a></a></r>`,
	}
	queries := []string{"_+", "_*.c", "_*.a[b].c", "a.(b|c)", "a[b].b", "%e"}
	for _, doc := range docs {
		for _, q := range queries {
			want := runSerialize(t, q, doc)
			got, _ := runStream(t, q, doc)
			if len(got) != len(want) {
				t.Fatalf("%s over %s: stream %v vs serialize %v", q, doc, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s over %s:\n stream    %q\n serialize %q", q, doc, got[i], want[i])
				}
			}
		}
	}
}

// TestStreamModeNoHeadBuffering: an immediately-accepted head answer
// streams with zero buffered events even when the answer spans the whole
// document — the abstract's "result fragments are output on the fly".
func TestStreamModeNoHeadBuffering(t *testing.T) {
	// One huge top-level answer: query selects the root element.
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < 5000; i++ {
		sb.WriteString("<item>v</item>")
	}
	sb.WriteString("</root>")

	_, stats := runStream(t, "root", sb.String())
	// Only the answer's own start tag is held for the one step before the
	// candidate is promoted to streaming.
	if stats.Output.MaxBufferedEvs > 1 {
		t.Fatalf("streaming head buffered %d events", stats.Output.MaxBufferedEvs)
	}

	// Serialize mode must buffer the whole subtree by construction.
	net, err := Build(rpeq.MustParse("root"), Options{Mode: ModeSerialize, Sink: func(Result) {}})
	if err != nil {
		t.Fatal(err)
	}
	sstats, err := net.Run(xmlstream.NewScanner(strings.NewReader(sb.String())))
	if err != nil {
		t.Fatal(err)
	}
	if sstats.Output.MaxBufferedEvs < 10000 {
		t.Fatalf("serialize mode should buffer the subtree, got %d", sstats.Output.MaxBufferedEvs)
	}
}

// TestStreamModeNestedBuffersOnlyInner: with nested answers, only the inner
// ones buffer (until the outer finishes); the outer streams.
func TestStreamModeNestedBuffersOnlyInner(t *testing.T) {
	doc := `<a><b><c/></b><b><c/></b></a>`
	got, stats := runStream(t, "_+", doc)
	want := []string{
		"<a><b><c></c></b><b><c></c></b></a>",
		"<b><c></c></b>", "<c></c>",
		"<b><c></c></b>", "<c></c>",
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d: got %q, want %q", i, got[i], want[i])
		}
	}
	// The outer <a> answer (10 events) streams; inner answers buffer.
	// Inner buffering is bounded by the nested answers' sizes, well
	// below the outer answer's 10 events plus all inner copies (18).
	if stats.Output.MaxBufferedEvs >= 18 {
		t.Fatalf("expected the outer answer to stream, buffered %d events", stats.Output.MaxBufferedEvs)
	}
}

func TestStreamModeRequiresSink(t *testing.T) {
	if _, err := Build(rpeq.MustParse("a"), Options{Mode: ModeStream}); err == nil {
		t.Fatal("ModeStream without a StreamSink must fail to build")
	}
}

// TestBuildSetMultipleSinks: one network, several queries, per-sink counts.
func TestBuildSetMultipleSinks(t *testing.T) {
	var aHits, cHits []int64
	specs := []Spec{
		{Expr: rpeq.MustParse("_*.a"), Mode: ModeNodes, Sink: func(r Result) { aHits = append(aHits, r.Index) }},
		{Expr: rpeq.MustParse("_*.c"), Mode: ModeNodes, Sink: func(r Result) { cHits = append(cHits, r.Index) }},
	}
	net, err := BuildSet(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(xmlstream.NewScanner(strings.NewReader(paperDoc))); err != nil {
		t.Fatal(err)
	}
	if len(aHits) != 2 || aHits[0] != 1 || aHits[1] != 2 {
		t.Fatalf("a hits: %v", aHits)
	}
	if len(cHits) != 2 || cHits[0] != 3 || cHits[1] != 5 {
		t.Fatalf("c hits: %v", cHits)
	}
	ss := net.SinkStats()
	if len(ss) != 2 || ss[0].Matches != 2 || ss[1].Matches != 2 {
		t.Fatalf("SinkStats: %+v", ss)
	}
	if net.Matches() != 4 {
		t.Fatalf("Matches: %d", net.Matches())
	}
}

// TestBuildSetSharing: identical queries share the whole network except the
// sinks.
func TestBuildSetSharing(t *testing.T) {
	expr := rpeq.MustParse("_*.a[b].c")
	single, err := Build(expr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	double, err := BuildSet([]Spec{{Expr: expr}, {Expr: rpeq.MustParse("_*.a[b].c")}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The second query adds exactly its own sink; both sinks are destinations
	// of the shared final tape's writer, the network's one sharing point.
	if double.Degree() != single.Degree()+1 {
		t.Fatalf("identical queries should share all transducers but the sink: %d vs %d",
			double.Degree(), single.Degree())
	}
	if double.Fanouts() != 1 {
		t.Fatalf("identical queries should meet at one sharing point, got %d", double.Fanouts())
	}
}

// TestBuildSetEmpty rejects an empty query set.
func TestBuildSetEmpty(t *testing.T) {
	if _, err := BuildSet(nil, Options{}); err == nil {
		t.Fatal("empty set must fail")
	}
}
