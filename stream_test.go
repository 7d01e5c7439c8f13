package spex

import (
	"strings"
	"testing"
)

type collectWriter struct {
	results []string
	current strings.Builder
	starts  int
	ends    int
}

func (c *collectWriter) ResultStart(Match)  { c.starts++; c.current.Reset() }
func (c *collectWriter) ResultXML(s string) { c.current.WriteString(s) }
func (c *collectWriter) ResultEnd(Match)    { c.ends++; c.results = append(c.results, c.current.String()) }

func TestStreamResults(t *testing.T) {
	q := MustCompile("_*.a[b].c")
	var w collectWriter
	if _, err := q.StreamResults(strings.NewReader(paperDoc), &w); err != nil {
		t.Fatal(err)
	}
	if w.starts != 1 || w.ends != 1 || len(w.results) != 1 || w.results[0] != "<c></c>" {
		t.Fatalf("got %+v", w)
	}
}

func TestStreamResultsAgreeWithResults(t *testing.T) {
	doc := `<feed><msg>one<tag/></msg><msg>two</msg></feed>`
	for _, expr := range []string{"_+", "feed.msg", "_*.tag"} {
		q := MustCompile(expr)
		want, err := q.EvaluateString(doc)
		if err != nil {
			t.Fatal(err)
		}
		var w collectWriter
		if _, err := q.StreamResults(strings.NewReader(doc), &w); err != nil {
			t.Fatal(err)
		}
		if len(w.results) != len(want) {
			t.Fatalf("%s: %d vs %d results", expr, len(w.results), len(want))
		}
		for i := range want {
			if w.results[i] != want[i].XML {
				t.Fatalf("%s result %d: %q vs %q", expr, i, w.results[i], want[i].XML)
			}
		}
	}
}

func TestMatchesDoc(t *testing.T) {
	q := MustCompile("_*.a[b].c")
	ok, err := q.MatchesDoc(strings.NewReader(paperDoc))
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	ok, err = q.MatchesDoc(strings.NewReader(`<x><y/></x>`))
	if err != nil || ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
}

func TestMatchesDocStopsEarly(t *testing.T) {
	// A reader that fails if drained past the early match.
	var sb strings.Builder
	sb.WriteString("<r><hit/>")
	for i := 0; i < 100000; i++ {
		sb.WriteString("<x></x>")
	}
	// Deliberately unterminated: if evaluation stops early, the
	// malformed tail is never reached.
	sb.WriteString("<unclosed>")
	q := MustCompile("r.hit")
	ok, err := q.MatchesDoc(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("early stop should not reach the malformed tail: %v", err)
	}
	if !ok {
		t.Fatal("expected a match")
	}
}

func TestSetCountsAndHits(t *testing.T) {
	queries := []*Query{
		MustCompile("a.a"),
		MustCompile("_*.c"),
		MustCompile("a[b]"),
	}
	type hit struct {
		query int
		index int64
	}
	var hits []hit
	set := NewSet(queries, func(qi int, m Match) { hits = append(hits, hit{qi, m.Index}) })
	if err := set.Evaluate(strings.NewReader(paperDoc)); err != nil {
		t.Fatal(err)
	}
	counts := set.Counts()
	if counts[0] != 1 || counts[1] != 2 || counts[2] != 1 {
		t.Fatalf("counts: %v", counts)
	}
	want := []hit{{0, 2}, {1, 3}, {1, 5}, {2, 1}}
	if len(hits) != len(want) {
		t.Fatalf("hits: %v", hits)
	}
	// Counts reset between evaluations.
	if err := set.Evaluate(strings.NewReader(paperDoc)); err != nil {
		t.Fatal(err)
	}
	if c := set.Counts(); c[1] != 2 {
		t.Fatalf("counts after re-evaluate: %v", c)
	}
}

// TestStreamEndElementBalance is the regression test for the depth-skew
// bug: EndElement used to decrement the stream's depth before the event
// could be rejected, so one failed call left the balance off by one and a
// subsequently well-formed document was reported unbalanced at Close. A
// rejected event must leave the stream's bookkeeping untouched.
func TestStreamEndElementBalance(t *testing.T) {
	q := MustCompile("a.b")
	var matches int
	s, err := q.Stream(func(Match) { matches++ })
	if err != nil {
		t.Fatal(err)
	}
	// Unbalanced close on a fresh stream: rejected, depth must not go
	// negative.
	if err := s.EndElement("a"); err == nil {
		t.Fatal("EndElement on an empty stream should fail")
	}
	// The stream stays usable and balanced after the rejected event.
	for _, step := range []struct {
		feed func(string) error
		name string
	}{
		{s.StartElement, "a"},
		{s.StartElement, "b"},
		{s.EndElement, "b"},
		{s.EndElement, "a"},
	} {
		if err := step.feed(step.name); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
	}
	// A second spurious close after returning to depth zero is again
	// rejected without skewing the balance, so Close still succeeds.
	if err := s.EndElement("a"); err == nil {
		t.Fatal("EndElement at depth zero should fail")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if matches != 1 {
		t.Fatalf("matches=%d", matches)
	}
}

// TestStreamStatsAndSnapshot checks the push-mode observability surface:
// Stats reads the network's own accounting, Snapshot the attached metrics
// registry, and the two agree after Close.
func TestStreamStatsAndSnapshot(t *testing.T) {
	q := MustCompile("_*.a[b].c")
	m := NewMetrics()
	s, err := q.Stream(func(Match) {}, WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		feed func(string) error
		name string
	}{
		{s.StartElement, "a"}, {s.StartElement, "c"}, {s.EndElement, "c"},
		{s.StartElement, "b"}, {s.EndElement, "b"}, {s.EndElement, "a"},
	} {
		if err := step.feed(step.name); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st, snap := s.Stats(), s.Snapshot()
	if st.Elements != 3 || st.MaxDepth != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if !snap.Enabled {
		t.Fatal("snapshot should be enabled with WithMetrics")
	}
	if snap.Elements != st.Elements || snap.Matches != st.Output.Matches ||
		snap.MaxDepth != int64(st.MaxDepth) {
		t.Fatalf("snapshot %+v disagrees with stats %+v", snap, st)
	}
	if st.Output.Matches != 1 {
		t.Fatalf("matches=%d", st.Output.Matches)
	}
	// Without WithMetrics the snapshot is inert but harmless.
	s2, err := q.Stream(func(Match) {})
	if err != nil {
		t.Fatal(err)
	}
	if snap := s2.Snapshot(); snap.Enabled {
		t.Fatal("snapshot without a registry should be disabled")
	}
}

// TestStreamAdversarialBuffering drives the §III.8 worst case through the
// push API: for r[z].x every <x> child of <r> is an answer candidate whose
// qualifier stays undetermined until </r>, so the output transducer must
// keep all of them queued. Without the witness they are dropped in one
// batch at scope close; with <z/> as the last child the same queue flushes
// as answers. The OutputStats buffering fields must record the peak.
func TestStreamAdversarialBuffering(t *testing.T) {
	const n = 64
	q := MustCompile("r[z].x")

	run := func(witness bool) (int64, Stats, Snapshot) {
		t.Helper()
		var matches int64
		s, err := q.Stream(func(Match) { matches++ }, WithMetrics(NewMetrics()))
		if err != nil {
			t.Fatal(err)
		}
		feed := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		feed(s.StartElement("r"))
		for i := 0; i < n; i++ {
			feed(s.StartElement("x"))
			feed(s.EndElement("x"))
		}
		if witness {
			feed(s.StartElement("z"))
			feed(s.EndElement("z"))
		}
		feed(s.EndElement("r"))
		feed(s.Close())
		return matches, s.Stats(), s.Snapshot()
	}

	matches, st, snap := run(false)
	if matches != 0 || st.Output.Matches != 0 {
		t.Fatalf("no witness: matches=%d", matches)
	}
	if st.Output.Candidates != n || st.Output.Dropped != n {
		t.Fatalf("candidates=%d dropped=%d, want %d each",
			st.Output.Candidates, st.Output.Dropped, n)
	}
	if st.Output.MaxQueued != n {
		t.Fatalf("every candidate must stay queued until </r>: MaxQueued=%d, want %d",
			st.Output.MaxQueued, n)
	}
	// The metrics registry mirrors the network's accounting.
	if snap.Candidates != n || snap.Dropped != n || snap.MaxQueued != n {
		t.Fatalf("snapshot candidates=%d dropped=%d maxQueued=%d, want %d each",
			snap.Candidates, snap.Dropped, snap.MaxQueued, n)
	}

	matches, st, _ = run(true)
	if matches != n || st.Output.Dropped != 0 {
		t.Fatalf("witness: matches=%d dropped=%d", matches, st.Output.Dropped)
	}
	if st.Output.MaxQueued != n {
		t.Fatalf("witness: MaxQueued=%d, want %d", st.Output.MaxQueued, n)
	}

	// Serialize mode additionally buffers each undetermined candidate's
	// content events until the verdict (§III.8): with the witness last, the
	// peak covers all n subtrees at once.
	var doc strings.Builder
	doc.WriteString("<r>")
	for i := 0; i < n; i++ {
		doc.WriteString("<x></x>")
	}
	doc.WriteString("<z></z></r>")
	sstats, err := q.Results(strings.NewReader(doc.String()), func(Result) {})
	if err != nil {
		t.Fatal(err)
	}
	if sstats.Output.MaxBufferedEvs < 2*n {
		t.Fatalf("serialize mode buffered %d events at peak, want >= %d",
			sstats.Output.MaxBufferedEvs, 2*n)
	}
}

func TestCompileXPathReverseAxes(t *testing.T) {
	q, err := CompileXPath("//c/parent::a")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	if _, err := q.Matches(strings.NewReader(paperDoc), func(m Match) {
		names = append(names, m.Name)
	}); err != nil {
		t.Fatal(err)
	}
	// Parents of c nodes: the inner a (c@3's parent) and outer a (c@5's).
	if len(names) != 2 || names[0] != "a" || names[1] != "a" {
		t.Fatalf("got %v", names)
	}
}
