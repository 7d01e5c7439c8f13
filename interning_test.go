package spex

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rpeq"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// TestCountModeZeroAlloc is the acceptance gate of the symbol pipeline: the
// qualifier-free answer loop performs zero steady-state allocations. CI runs
// this test in the bench smoke job; a regression that re-introduces
// steady-state allocation fails it rather than just shifting a benchmark
// number. It has one arm per way the loop is reached: a count-mode network
// replaying pre-resolved events, and Set.EvaluateBytes — the path the
// benchmark's feed_count workload takes — whose sinks run in ModeNodes.
func TestCountModeZeroAlloc(t *testing.T) {
	t.Run("network", func(t *testing.T) {
		var doc bytes.Buffer
		doc.WriteString("<RDF>")
		for i := 0; i < 200; i++ {
			doc.WriteString("<Topic><Title></Title><editor></editor></Topic>")
		}
		doc.WriteString("</RDF>")

		symtab := xmlstream.NewSymtab()
		events, err := xmlstream.Collect(xmlstream.NewScanner(&doc,
			xmlstream.WithText(false), xmlstream.WithSymtab(symtab)))
		if err != nil {
			t.Fatal(err)
		}
		net, err := spexnet.Build(rpeq.MustParse("_*.Topic.Title"), spexnet.Options{
			Mode:   spexnet.ModeCount,
			Symtab: symtab,
		})
		if err != nil {
			t.Fatal(err)
		}
		src := &xmlstream.SliceSource{Events: events}
		feed := func() {
			src.Reset()
			net.Rewind()
			if _, err := net.Run(src); err != nil {
				t.Fatal(err)
			}
		}
		// One warm pass grows the inboxes and transducer stacks to their steady
		// size (AllocsPerRun adds its own warm-up run on top).
		feed()
		if allocs := testing.AllocsPerRun(5, feed); allocs != 0 {
			t.Fatalf("count-mode steady state allocates: %.1f allocs per document, want 0", allocs)
		}
		if n := net.Matches(); n == 0 {
			t.Fatal("zero-alloc run found no answers; workload broken")
		}
	})
	t.Run("set", func(t *testing.T) {
		// An unconditional answer with nothing queued ahead of it is
		// delivered straight from its start event in ModeNodes too — no
		// candidate record. An evaluation still makes its scanner options,
		// so the steady-state figure is the growth with the document: five
		// times the answers must cost no more allocations.
		feedDoc := func(entries int) []byte {
			var doc bytes.Buffer
			doc.WriteString("<feed>")
			for i := 0; i < entries; i++ {
				doc.WriteString("<entry><title>t</title><body>text</body></entry>")
			}
			doc.WriteString("</feed>")
			return doc.Bytes()
		}
		var answers int64
		set := NewSet([]*Query{MustCompile("feed.entry.title")}, func(int, Match) { answers++ })
		allocsFor := func(entries int) float64 {
			doc := feedDoc(entries)
			eval := func() {
				if err := set.EvaluateBytes(doc); err != nil {
					t.Fatal(err)
				}
			}
			answers = 0
			eval()
			if answers != int64(entries) {
				t.Fatalf("%d answers for %d entries; workload broken", answers, entries)
			}
			// The scanner's pool drops entries at random under the race
			// detector: the steadiest of a few readings counts.
			allocs := math.Inf(1)
			for try := 0; try < 12; try++ {
				allocs = min(allocs, testing.AllocsPerRun(1, eval))
			}
			return allocs
		}
		small, large := allocsFor(200), allocsFor(1000)
		if large > small {
			t.Fatalf("Set.EvaluateBytes allocates per answer: %.1f allocs for 200 answers, %.1f for 1000 (%.3f per extra answer), want no growth",
				small, large, (large-small)/800)
		}
	})
}

// subscriptionSet is the benchmark's sdi_merged subscription set — 128
// overlapping subscriptions over DMOZ-shaped records — as a Set whose callback
// counts, and the counter.
func subscriptionSet() (*Set, *int64) {
	texts := bench.SharedSubscriptions(128, 0.5, 1)
	queries := make([]*Query, len(texts))
	for i, q := range texts {
		queries[i] = MustCompile(q)
	}
	answers := new(int64)
	return NewSet(queries, func(int, Match) { *answers++ }), answers
}

// TestSetSteadyStateAllocs is the gate on what a set evaluation allocates once
// conditions and candidates are involved: the benchmark's sdi_merged shape —
// its subscriptions, its document size — on a warmed Set, in bytes per scanner
// event, as the benchmark's alloc_b_per_event counts them. A Set is a standing
// engine: the pass runs on the network of the pass before, rewound, finds its
// formulas in that network's unique table, takes its candidate records off its
// free list and its scanner from the pool, so what is left is the reader and
// the scanner's options: 120 bytes a pass, 0.006 B/event. It read 630 B/event while every ∧/∨
// built a node with a string key and every candidate was allocated, 29 while
// the network had a node, two tapes and a closure for every connector of
// Fig. 11, and 13.5 while every pass built its 218-node network, symbol table
// and formula table again; the bound is this reading + 20 %. A pass that had
// to allocate its scanner again (the pool it comes from is emptied by a
// collection, and at random under the race detector) reads 3.6 more, so the
// steadiest of a few passes counts.
func TestSetSteadyStateAllocs(t *testing.T) {
	doc := dataset.DMOZStructure(1900.0 / 690000).Bytes()
	events, err := xmlstream.Collect(xmlstream.ScanBytes(doc, xmlstream.WithText(false)))
	if err != nil {
		t.Fatal(err)
	}
	set, answers := subscriptionSet()
	eval := func() {
		if err := set.Evaluate(bytes.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	eval()
	if *answers == 0 {
		t.Fatal("no answers; workload broken")
	}
	const bound = 0.0075
	perEvent := math.Inf(1)
	for pass := 0; pass < 8 && perEvent > bound; pass++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eval()
		runtime.ReadMemStats(&after)
		perEvent = min(perEvent, float64(after.TotalAlloc-before.TotalAlloc)/float64(len(events)))
	}
	t.Logf("%d events: %.4f B/event", len(events), perEvent)
	if perEvent > bound {
		t.Errorf("a steady pass allocates %.4f B/event, want at most %.4f", perEvent, bound)
	}
}

// TestSetSmallDocAllocs is the gate on the regime SPEX was built for — many
// small documents against standing subscriptions: evaluating a one-record
// document on the warmed subscription set costs its reader and scanner options,
// not the 1 677 allocations (and 271 µs) of building 218 transducers for it. A
// pass after a failed one is allowed its build; the pass after that is not.
func TestSetSmallDocAllocs(t *testing.T) {
	const bound = 16
	doc := dataset.DMOZStructure(1.0 / 690000).Bytes()
	set, answers := subscriptionSet()
	eval := func() {
		if err := set.Evaluate(bytes.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	eval()
	if *answers == 0 {
		t.Fatal("no answers; workload broken")
	}
	if allocs := testing.AllocsPerRun(20, eval); allocs > bound {
		t.Errorf("a one-record document on the warmed set: %.0f allocations, want at most %d", allocs, bound)
	}
	if err := set.Evaluate(bytes.NewReader(doc[:len(doc)/2])); err == nil {
		t.Fatal("truncated document evaluated without error")
	}
	eval() // builds
	if allocs := testing.AllocsPerRun(20, eval); allocs > bound {
		t.Errorf("a one-record document on the set rebuilt after a failed pass: %.0f allocations, want at most %d", allocs, bound)
	}
}

// interningCorpus pairs documents with the queries cross-validated on them.
// The documents probe the interner's edges: the paper's Fig. 1 document,
// a DMOZ-shaped catalog, labels that are prefixes of one another, unicode
// labels, and adjacent empty elements.
var interningCorpus = []struct {
	name    string
	doc     string
	queries []string
}{
	{
		name: "paper-fig1",
		doc:  "<a><a><c></c></a><b></b><c></c></a>",
		queries: []string{
			"a", "_*.c", "a.a.c", "a._", "_*.a[c]", "a[b].c", "a[_*.c]._",
		},
	},
	{
		name: "dmoz-shape",
		doc: "<RDF>" + strings.Repeat(
			"<Topic><catid>1</catid><Title>t</Title><link></link></Topic>"+
				"<ExternalPage><Title>x</Title></ExternalPage>", 7) + "</RDF>",
		queries: []string{
			"_*.Topic.Title", "RDF._", "_*.Title", "RDF.Topic[link].Title", "_*._",
		},
	},
	{
		name: "colliding-prefixes",
		doc:  "<a><aa><ab></ab></aa><ab></ab><a></a></a>",
		queries: []string{
			"a.aa", "_*.ab", "a.a", "a[aa.ab]._", "_*.aa.ab",
		},
	},
	{
		// The rpeq grammar is ASCII, but the document side of the interner
		// must treat multi-byte labels like any other: wildcards traverse
		// them and an ascii sibling distinguishes itself from them.
		name: "unicode-labels",
		doc:  "<r><città>x</città><città></città><x></x><日本><x></x></日本></r>",
		queries: []string{
			"r._", "_*._", "r.x", "_*.x", "r[x]._",
		},
	},
	{
		name: "empty-adjacent",
		doc:  "<r><x></x><x></x><y></y><x></x></r>",
		queries: []string{
			"r.x", "r._", "_*.x", "r[y].x",
		},
	},
}

// TestInterningCrossValidation evaluates every corpus query on the symbol
// pipeline and on the NoInterning ablation (the seed's string-matching
// pipeline) and requires byte-identical serialized answers.
func TestInterningCrossValidation(t *testing.T) {
	for _, tc := range interningCorpus {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, query := range tc.queries {
				plan, err := core.Prepare(query)
				if err != nil {
					t.Fatalf("%s: %v", query, err)
				}
				run := func(noInterning bool) string {
					var out strings.Builder
					eo := core.EvalOptions{
						Mode:        spexnet.ModeSerialize,
						NoInterning: noInterning,
						Sink: func(res spexnet.Result) {
							fmt.Fprintf(&out, "%d %s %s\n",
								res.Index, res.Name, xmlstream.Serialize(res.Events))
						},
					}
					if _, err := plan.EvaluateReader(strings.NewReader(tc.doc), eo); err != nil {
						t.Fatalf("%s (noInterning=%v): %v", query, noInterning, err)
					}
					return out.String()
				}
				interned, strs := run(false), run(true)
				if interned != strs {
					t.Errorf("%s: answers diverge\ninterned:\n%s\nstrings:\n%s",
						query, interned, strs)
				}
			}
		})
	}
}

// TestSetEnginesAgree runs the same query set inline and sharded and
// requires per-query counts and match lists identical to evaluating every
// query alone (the acceptance criterion that neither merging nor sharding
// changes an answer).
func TestSetEnginesAgree(t *testing.T) {
	doc := "<RDF>" + strings.Repeat(
		"<Topic><catid>7</catid><Title>t</Title></Topic><Alias><Title>a</Title></Alias>", 9) +
		"</RDF>"
	queries := []*Query{
		MustCompile("_*.Topic.Title"),
		MustCompile("RDF._"),
		MustCompile("_*.Title"),
		MustCompile("RDF.Topic[catid].Title"),
	}
	if _, counts := runSingle(t, queries, doc); slices.Contains(counts, 0) {
		t.Fatalf("a query found no answers; workload broken: %v", counts)
	}
	crossValidate(t, queries, doc)
}

// TestConcurrentStreamsShareSymtab drives several push-mode Streams of one
// compiled Query concurrently, each feeding labels mostly distinct per
// goroutine. All runs intern into the query plan's shared symbol table, so
// under -race this exercises the copy-on-write reader/writer protocol of
// the interner on its intended access pattern.
func TestConcurrentStreamsShareSymtab(t *testing.T) {
	q := MustCompile("_*.x")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var matches int
			s, err := q.Stream(func(Match) { matches++ })
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 500; i++ {
				label := fmt.Sprintf("l%d_%d", g, i)
				if err := s.StartElement(label); err != nil {
					t.Error(err)
					return
				}
				if err := s.StartElement("x"); err != nil {
					t.Error(err)
					return
				}
				if err := s.EndElement("x"); err != nil {
					t.Error(err)
					return
				}
				if err := s.EndElement(label); err != nil {
					t.Error(err)
					return
				}
			}
			if err := s.Close(); err != nil {
				t.Error(err)
				return
			}
			if matches != 500 {
				t.Errorf("goroutine %d: %d matches, want 500", g, matches)
			}
		}(g)
	}
	wg.Wait()
	if n := q.plan.Symtab().Len(); n < 4*500 {
		t.Errorf("symtab holds %d symbols, want at least 2000", n)
	}
}

// TestMatchesDocReleasesRun covers the early-exit bugfix: MatchesDoc stops
// mid-stream on the first answer and must still release the run (Release is
// idempotent, so the non-early path is covered too).
func TestMatchesDocReleasesRun(t *testing.T) {
	q := MustCompile("_*.hit")
	// The answer appears early in a long document; evaluation must stop
	// without consuming the rest (an erroring reader after the answer
	// would fail the test if it were read).
	head := "<r><hit></hit>"
	r := io.MultiReader(strings.NewReader(head), failingReader{})
	ok, err := q.MatchesDoc(r)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("expected a match")
	}
	// No match at all: the run completes and closes normally.
	ok, err = q.MatchesDoc(strings.NewReader("<r><miss></miss></r>"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("unexpected match")
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) {
	return 0, fmt.Errorf("read past the early-exit point")
}
