package spexnet

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/governor"
	"repro/internal/rpeq"
	"repro/internal/xmlstream"
)

// quiescentDocs are well-formed documents of every shape the transducers keep
// state for: the paper's Fig. 1, the same with attributes and text, nested
// same-label chains, a deep path, an empty root, and DMOZ-shaped records.
func quiescentDocs() map[string]string {
	var deep strings.Builder
	for i := 0; i < 40; i++ {
		deep.WriteString("<a><b>")
	}
	deep.WriteString("<c>x</c>")
	for i := 0; i < 40; i++ {
		deep.WriteString("</b></a>")
	}
	return map[string]string{
		"fig1":   `<a><a><c/></a><b/><c/></a>`,
		"values": `<a id="1"><a id="2" k="v"><c>x</c></a><b>x</b><c id="3">y</c><d/></a>`,
		"chains": `<a><a><a><b><c/><d/></b></a><b/></a><c><a><b/><c/></a></c></a>`,
		"deep":   deep.String(),
		"empty":  `<r/>`,
		"dmoz":   string(dataset.DMOZStructure(0.0002).Bytes()),
	}
}

// coreConstructs are queries over every construct of Fig. 11 and the value
// tests: the fragment for which nothing mentions a variable after its scope
// (netConfig.retainVars unset).
var coreConstructs = []string{
	"a", "a+", "a*", "a?", "a.b", "(a|b)", "a[b]", "a[b*]", "a[not(b)]", "_*",
	"a.(b|c).d", "(a|b).c?", "_*.a[b].c", "_*.a[b[c]].d", "a[b].c[d]", "a[b.c?]", "a[(b|c)]",
	`a[b="x"]`, `_*.a[c!="x"]`, `a[@id="1"].b`, "a.b.@id", "a.@id", "_*._.@id", "_*.a[not(c)].b", "_*[_*[c]]",
	"_*.Topic[editor].Title", "RDF._", "_*.Topic[catid]",
}

// axisConstructs keep condition variables past their scopes (retainVars).
var axisConstructs = []string{
	"//b/following::c", "//b/preceding::c", "//a[b]/following::c", "//a[b]/preceding::c", "//c/preceding::a/b",
}

func parseAny(t *testing.T, q string) rpeq.Node {
	t.Helper()
	var opts []rpeq.ParseOption
	if strings.HasPrefix(q, "/") {
		opts = append(opts, rpeq.WithXPath())
	}
	expr, err := rpeq.Parse(q, opts...)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return expr
}

// checkQuiescent asserts that the network holds nothing of a document: the
// §V bound at depth 0.
func checkQuiescent(t *testing.T, n *Network, ctx string) {
	t.Helper()
	for i := range n.nodes {
		if cur := n.nodes[i].t.stackStats().Cur; cur != 0 {
			t.Errorf("%s: node %d %s holds %d stack entries", ctx, i, n.nodes[i].t.name(), cur)
		}
		if len(n.inboxes[i].msgs) != 0 {
			t.Errorf("%s: inbox %d holds %d activations", ctx, i, len(n.inboxes[i].msgs))
		}
	}
	for w := range n.hot {
		if n.hot[w] != 0 || n.armed[w] != 0 {
			t.Errorf("%s: active set word %d: hot %b, armed %b", ctx, w, n.hot[w], n.armed[w])
		}
	}
	if live := n.cfg.pool.Live(); live != 0 {
		t.Errorf("%s: %d condition variables live", ctx, live)
	}
	s := n.store
	for v := range s.vars {
		if r := &s.vars[v]; r.val != nil || r.binding != nil || len(r.waiting) != 0 {
			t.Errorf("%s: the store keeps variable %d: val %v, binding %v, %d waiting", ctx, v, r.val, r.binding, len(r.waiting))
		}
	}
	if len(s.bound) != 0 || len(s.queue) != 0 {
		t.Errorf("%s: the store keeps %d bindings and %d queued determinations", ctx, len(s.bound), len(s.queue))
	}
	// Every candidate record is on the free list: none queued, open, or
	// tracked count-only, and nothing buffered.
	for _, out := range n.outs {
		if len(out.queue) != 0 || len(out.openStack) != 0 || out.pendingN != 0 || out.buffered != 0 || out.pending != nil {
			t.Errorf("%s: sink %d holds %d queued, %d open, %d count-only candidates, %d buffered events",
				ctx, out.idx, len(out.queue), len(out.openStack), out.pendingN, out.buffered)
		}
	}
	for _, c := range s.free {
		if c.queued || c.open || c.content.Len() != 0 {
			t.Errorf("%s: a record on the free list is queued=%v open=%v with %d events", ctx, c.queued, c.open, c.content.Len())
		}
	}
}

// pass is what one document made of a network: its statistics and answers.
type pass struct {
	stats   Stats
	sinks   []OutputStats
	answers string
}

func runPass(t *testing.T, n *Network, log *strings.Builder, doc string) pass {
	t.Helper()
	log.Reset()
	stats, err := n.Run(xmlstream.NewScanner(strings.NewReader(doc)))
	if err != nil {
		t.Fatal(err)
	}
	return pass{stats, n.SinkStats(), log.String()}
}

// TestFinishedNetworkIsQuiescent is the property that makes Rewind after a
// clean finish a matter of counters, asserted rather than assumed: after Finish
// on a well-formed document a network of the core constructs holds nothing —
// every stack empty, the active set clear, no inbox written, no variable live,
// no record or waiting list in the condition store, every candidate record on
// the free list — without Rewind having run. A network with following or
// preceding steps keeps its variables to the end of the stream; for those
// Rewind is what leaves that state. Either way a second pass over the rewound
// network reads exactly what the first one did.
func TestFinishedNetworkIsQuiescent(t *testing.T) {
	modes := []ResultMode{ModeCount, ModeNodes, ModeSerialize}
	check := func(t *testing.T, q, docName, doc string, mode ResultMode, core bool) {
		ctx := fmt.Sprintf("%s over %s, mode %d", q, docName, mode)
		var log strings.Builder
		n, err := Build(parseAny(t, q), Options{Mode: mode, Sink: func(r Result) {
			fmt.Fprintf(&log, "%d %s %s\n", r.Index, r.Name, xmlstream.Serialize(r.Events))
		}})
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if n.cfg.retainVars == core {
			t.Fatalf("%s: retainVars is %v", ctx, n.cfg.retainVars)
		}
		checkQuiescent(t, n, ctx+", built")
		first := runPass(t, n, &log, doc)
		if !n.Clean() {
			t.Errorf("%s: a finished network is not clean", ctx)
		}
		if core {
			checkQuiescent(t, n, ctx+", finished")
		}
		n.Rewind()
		checkQuiescent(t, n, ctx+", rewound")
		if st := n.Stats(); !reflect.DeepEqual(st, Stats{Transducers: n.Degree()}) {
			t.Errorf("%s: a rewound network reports %+v", ctx, st)
		}
		if second := runPass(t, n, &log, doc); !reflect.DeepEqual(second, first) {
			t.Errorf("%s: second pass over the rewound network\n%+v\nfirst pass\n%+v", ctx, second, first)
		}
	}
	for docName, doc := range quiescentDocs() {
		for _, mode := range modes {
			for _, q := range coreConstructs {
				check(t, q, docName, doc, mode, true)
			}
			for _, q := range axisConstructs {
				check(t, q, docName, doc, mode, false)
			}
		}
	}
}

// TestRewindFromAnyState: Rewind does not need a clean finish behind it. A
// network stopped in the middle of a document — candidates queued and open,
// variables live, stacks deep — or one the governor shed or degraded reads a
// whole document afterwards exactly as a newly built one does.
func TestRewindFromAnyState(t *testing.T) {
	doc := `<a><a><c>x</c></a><c>y</c><b/><c/></a>`
	build := func(log *strings.Builder, gov *governor.Config) *Network {
		specs := []Spec{}
		for i, q := range []string{"_*.a[b].c", "_*.a[not(b)]", "_*.c", `_*.a[c="y"]`} {
			i := i
			specs = append(specs, Spec{Expr: rpeq.MustParse(q), Mode: ModeSerialize, Name: q, Sink: func(r Result) {
				fmt.Fprintf(log, "q%d %d %s\n", i, r.Index, xmlstream.Serialize(r.Events))
			}})
		}
		n, err := BuildSet(specs, Options{Governor: gov})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	events, err := xmlstream.Collect(xmlstream.NewScanner(strings.NewReader(doc)))
	if err != nil {
		t.Fatal(err)
	}
	for _, gov := range []*governor.Config{
		nil,
		{Limits: governor.Limits{MaxCandidates: 1}, Policy: governor.PolicyDegrade},
		{Limits: governor.Limits{MaxCandidates: 1}, Policy: governor.PolicyShed},
		{Limits: governor.Limits{MaxLiveVars: 1}, Policy: governor.PolicyShed},
	} {
		var wantLog, log strings.Builder
		want := runPass(t, build(&wantLog, gov), &wantLog, doc)
		for stop := 1; stop <= len(events); stop++ {
			n := build(&log, gov)
			for _, ev := range events[:stop] {
				if err := n.Step(ev); err != nil {
					t.Fatal(err)
				}
			}
			if stop < len(events) && n.Clean() {
				t.Errorf("stopped after %d events: the network calls itself clean", stop)
			}
			n.Rewind()
			if got := runPass(t, n, &log, doc); !reflect.DeepEqual(got, want) {
				t.Errorf("governor %+v, rewound after %d events:\n%+v\na new network reads\n%+v", gov, stop, got, want)
			}
		}
	}
}

// TestRewindForgetsDeterminedSinks: a sink that reached its answer limit before
// the rewind counts for nothing after it.
func TestRewindForgetsDeterminedSinks(t *testing.T) {
	var hits [2]int
	n, err := BuildSet([]Spec{
		{Expr: rpeq.MustParse("_*.c"), Mode: ModeNodes, Limit: 1, Sink: func(Result) { hits[0]++ }},
		{Expr: rpeq.MustParse("_*.b"), Mode: ModeNodes, Limit: 1, Sink: func(Result) { hits[1]++ }},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	events, err := xmlstream.Collect(xmlstream.NewScanner(strings.NewReader(`<a><c/><c/><b/></a>`)))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 2; pass++ {
		for _, ev := range events[:4] { // <$> <a> <c> </c>
			if err := n.Step(ev); err != nil {
				t.Fatal(err)
			}
		}
		if hits != [2]int{pass, 0} || n.AnswerDetermined() {
			t.Fatalf("pass %d: hits %v, determined %v after the first <c>", pass, hits, n.AnswerDetermined())
		}
		n.Rewind()
	}
	if _, err := n.Run(&xmlstream.SliceSource{Events: events}); err != nil {
		t.Fatal(err)
	}
	if hits != [2]int{3, 1} || !n.AnswerDetermined() {
		t.Errorf("hits %v, determined %v after a whole document", hits, n.AnswerDetermined())
	}
}

// TestRewindLetsGoOfWhatTheDocumentGrew: stacks and tables bounded by the
// depth stay with a rewound network; variable records that a preceding step
// kept for a whole long document, and the candidate records of a long run of
// undecided answers, do not.
func TestRewindLetsGoOfWhatTheDocumentGrew(t *testing.T) {
	const many = maxKeptRecords + 500
	doc := "<r>" + strings.Repeat("<c/>", many) + "<b/></r>"
	for _, q := range []string{"//b/preceding::c", "r[b].c"} {
		n, err := Build(parseAny(t, q), Options{Mode: ModeNodes, Sink: func(Result) {}})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := n.Run(xmlstream.NewScanner(strings.NewReader(doc)))
		if err != nil || stats.Output.Matches != many {
			t.Fatalf("%s: %d matches, %v; want %d", q, stats.Output.Matches, err, many)
		}
		if len(n.store.free) <= maxKeptRecords {
			t.Fatalf("%s: only %d records came free; workload broken", q, len(n.store.free))
		}
		n.Rewind()
		if len(n.store.free) > maxKeptRecords || len(n.store.vars) > maxKeptRecords {
			t.Errorf("%s: a rewound network keeps %d candidate records and %d variable records, want at most %d",
				q, len(n.store.free), len(n.store.vars), maxKeptRecords)
		}
		if again, err := n.Run(xmlstream.NewScanner(strings.NewReader(doc))); err != nil || again.Output.Matches != many {
			t.Errorf("%s: second pass: %d matches, %v", q, again.Output.Matches, err)
		}
	}
}
