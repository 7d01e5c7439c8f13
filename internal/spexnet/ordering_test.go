package spexnet_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/dom"
	"repro/internal/governor"
	"repro/internal/rpeq"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// The ordering cases pin what the condition store owes the sinks now that no
// tape fixes the order of a determination relative to the document event: a
// witness or kill found at an event takes effect before any sink sees that
// event, a scope-exit finalization after every sink has, and a witness found in
// the same step as the finalization wins. Each case is checked against the DOM
// tree-walk oracle in all four result modes, because the modes differ in what
// a late or early determination would break — the count, the document order
// of node answers, the content buffered for an undecided candidate, the
// events streamed for the head candidate.

type oracleAnswer struct {
	index int64
	xml   string
}

func parseQuery(t *testing.T, q string) rpeq.Node {
	t.Helper()
	var opts []rpeq.ParseOption
	if strings.HasPrefix(q, "/") { // the following/preceding axes exist in the XPath surface only
		opts = append(opts, rpeq.WithXPath())
	}
	expr, err := rpeq.Parse(q, opts...)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return expr
}

func oracle(t *testing.T, expr rpeq.Node, doc string) []oracleAnswer {
	t.Helper()
	tree, err := dom.BuildString(doc)
	if err != nil {
		t.Fatal(err)
	}
	var out []oracleAnswer
	for _, n := range (baseline.TreeWalk{}).Eval(tree, expr) {
		out = append(out, oracleAnswer{n.Index, xmlstream.Serialize(n.Events())})
	}
	return out
}

// answersIn evaluates expr over doc in one result mode and returns what the
// sink was given: the count alone (ModeCount), indexes (ModeNodes), or indexes
// with the rendered subtree (ModeSerialize, ModeStream).
func answersIn(t *testing.T, mode spexnet.ResultMode, expr rpeq.Node, doc string, limit int64) (int64, []oracleAnswer) {
	t.Helper()
	var got []oracleAnswer
	opts := spexnet.Options{Mode: mode, Limit: limit}
	switch mode {
	case spexnet.ModeNodes:
		opts.Sink = func(r spexnet.Result) { got = append(got, oracleAnswer{index: r.Index}) }
	case spexnet.ModeSerialize:
		opts.Sink = func(r spexnet.Result) {
			got = append(got, oracleAnswer{r.Index, xmlstream.Serialize(r.Events)})
		}
	case spexnet.ModeStream:
		var events []xmlstream.Event
		open := int64(-1)
		opts.StreamSink = spexnet.NewStreamSink(
			func(index int64, _ string) {
				if open >= 0 {
					t.Errorf("answer %d started inside answer %d", index, open)
				}
				open, events = index, events[:0]
			},
			func(ev xmlstream.Event) { events = append(events, ev.Clone()) }, // valid during the call only
			func(index int64) {
				if index != open {
					t.Errorf("answer %d ended, %d is open", index, open)
				}
				got = append(got, oracleAnswer{index, xmlstream.Serialize(events)})
				open = -1
			},
		)
	}
	net, err := spexnet.Build(expr, opts)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := net.Run(xmlstream.NewScanner(strings.NewReader(doc)))
	if err != nil {
		t.Fatalf("mode %d: %v", mode, err)
	}
	return stats.Output.Matches, got
}

var allModes = []struct {
	name string
	mode spexnet.ResultMode
}{
	{"count", spexnet.ModeCount}, {"nodes", spexnet.ModeNodes},
	{"serialize", spexnet.ModeSerialize}, {"stream", spexnet.ModeStream},
}

// checkModes compares every mode's answers with the oracle's first limit
// answers (all of them when limit is 0).
func checkModes(t *testing.T, query, doc string, limit int64) {
	t.Helper()
	expr := parseQuery(t, query)
	want := oracle(t, expr, doc)
	if limit > 0 && int64(len(want)) > limit {
		want = want[:limit]
	}
	for _, m := range allModes {
		n, got := answersIn(t, m.mode, expr, doc, limit)
		if n != int64(len(want)) {
			t.Errorf("%s over %s, %s mode: %d matches, oracle has %d", query, doc, m.name, n, len(want))
		}
		if m.mode == spexnet.ModeCount {
			continue
		}
		if len(got) != len(want) {
			t.Errorf("%s over %s, %s mode: answers %v, oracle %v", query, doc, m.name, got, want)
			continue
		}
		for i := range want {
			if got[i].index != want[i].index || (m.mode != spexnet.ModeNodes && got[i].xml != want[i].xml) {
				t.Errorf("%s over %s, %s mode: answer %d is %v, oracle %v", query, doc, m.name, i, got[i], want[i])
			}
		}
	}
}

func TestDeterminationOrdering(t *testing.T) {
	cases := []struct {
		name, query string
		docs        []string
	}{
		{
			// TE witnesses the instance at </b>, one end event ahead of the
			// scope-exit finalization at </a>; with <b/> as the last child the
			// two are adjacent events, with a[.="x"] they are the same one.
			"text test witnessed by the last child", `_*.a[b="x"].c`,
			[]string{
				`<r><a><c>1</c><b>x</b></a><a><c>2</c><b>y</b></a><a><c>3</c><d/><b>x</b></a></r>`,
				`<r><a><c>1</c><b/></a><a><b/><c>2</c></a><a><c>3</c><b></b></a></r>`,
				`<a><a><c>in</c><b>x</b></a><c>out</c><b>y</b></a>`,
			},
		},
		{"empty text value", `_*.a[b=""].c`, []string{`<r><a><c>1</c><b/></a><a><c>2</c><b>x</b></a><a><c>3</c></a></r>`}},
		{"text test on the instance itself", `//a[.="x"]/c`, []string{`<r><a><c>x</c></a><a><c>y</c></a><a>x<c/></a></r>`}},
		{
			// Its negation: the kill at </b>, the scope-exit {c,true} and the
			// {c,close} behind it.
			"negated text test", `_*.a[not(b="x")].c`,
			[]string{
				`<r><a><c>1</c><b>x</b></a><a><c>2</c><b>y</b></a><a><c>3</c></a></r>`,
				`<r><a><c>1</c><b/></a><a><c>2</c><b>x</b><b>y</b></a></r>`,
				`<a><a><c>in</c><b>x</b></a><c>out</c></a>`,
			},
		},
		{"negated structural qualifier", `_*.a[not(b)].c`, []string{`<r><a><c>1</c><b/></a><a><c>2</c></a><a><a><c>3</c></a><b/><c>4</c></a></r>`}},
		{
			// Nested qualifiers: VD binds the outer variable to a residual
			// witness over the inner one, resolved later by a cascade.
			"nested qualifiers with residual witnesses", `_*.a[b[c]].d`,
			[]string{
				`<r><a><d>1</d><b><x/></b><b><c/></b></a><a><d>2</d><b/></a><a><b><c/></b><d>3</d></a></r>`,
				`<a><d>0</d><a><d>1</d><b><c/></b></a><b><x/><c/></b></a>`,
				`<r><a><d>1</d><b><c/><c/></b><b><c/></b><d>2</d></a></r>`,
			},
		},
		{"nested qualifier closed by a negation", `_*.a[b[not(c)]].d`, []string{`<r><a><d>1</d><b><c/></b></a><a><d>2</d><b><c/></b><b/></a></r>`}},
		{
			// retainVars: formulas outlive the scopes of the variables they
			// mention, so records and ids are kept.
			"following under a qualifier", `//a[b]/following::c`,
			[]string{`<r><a><c>0</c></a><c>1</c><a><b/></a><c>2</c><x><c>3</c></x></r>`, `<r><a><a><b/></a><c>1</c></a><c>2</c></r>`},
		},
		{"preceding", `//b/preceding::c`, []string{`<r><c>1</c><x><c>2</c></x><b/><c>3</c><b><c>4</c></b><c>5</c></r>`}},
		{"preceding of a qualified context", `//a[b]/preceding::c`, []string{`<r><c>1</c><a><c>2</c></a><c>3</c><a><b/></a><c>4</c></r>`}},
		{"preceding then child", `//b/preceding::a/c`, []string{`<r><a><c>1</c></a><a><c>2</c><b/></a><a><c>3</c></a></r>`}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, doc := range c.docs {
				checkModes(t, c.query, doc, 0)
			}
		})
	}
}

// TestLimitReachedMidCascade: one cascade (the inner witness {v,true} resolving
// the outer binding) decides several candidates at once; with an answer limit
// only the first in document order may be delivered, whichever mode — and in a
// sink the governor degraded to counting, where candidates are counted as they
// resolve, the count stops at the limit in the middle of the resolution.
func TestLimitReachedMidCascade(t *testing.T) {
	const query = `_*.a[b[c]].d`
	const doc = `<r><a><d>1</d><d>2</d><d>3</d><b><x/><c/></b><d>4</d></a><a><d>5</d><b><c/></b></a></r>`
	for limit := int64(1); limit <= 5; limit++ {
		checkModes(t, query, doc, limit)
	}
	for _, limit := range []int64{1, 2, 4} {
		cfg := &governor.Config{Limits: governor.Limits{MaxCandidates: 1}, Policy: governor.PolicyDegrade}
		net, err := spexnet.Build(parseQuery(t, query), spexnet.Options{Mode: spexnet.ModeNodes, Limit: limit, Governor: cfg, Sink: func(spexnet.Result) {}})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := net.Run(xmlstream.NewScanner(strings.NewReader(doc)))
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Output.Degraded || !stats.Output.Determined || stats.Output.Matches != limit {
			t.Errorf("limit %d, degraded sink: %+v, want degraded, determined, %d matches", limit, stats.Output, limit)
		}
	}
}

// TestSharedVariableAcrossSinks: two queries share the qualifier _*.a[b], so
// the candidates of both sinks wait on the same variables in the one condition
// store. When the governor sheds or degrades the first sink mid-stream — with
// candidates of a shared variable still registered — the second sink's answers
// must be exactly what it reports alone, and a degraded sink's count stays
// exact.
func TestSharedVariableAcrossSinks(t *testing.T) {
	var doc strings.Builder
	doc.WriteString("<r>")
	for i := 0; i < 6; i++ {
		doc.WriteString("<a><c/><c/><c/><d/><c/>")
		if i%2 == 0 {
			doc.WriteString("<b/>")
		}
		doc.WriteString("<d/></a>")
	}
	doc.WriteString("</r>")
	q0, q1 := parseQuery(t, `_*.a[b].c`), parseQuery(t, `_*.a[b].d`)
	want0, want1 := oracle(t, q0, doc.String()), oracle(t, q1, doc.String())

	for _, policy := range []governor.Policy{governor.PolicyShed, governor.PolicyDegrade} {
		t.Run(policy.String(), func(t *testing.T) {
			var got [2][]int64
			specs := []spexnet.Spec{
				{Expr: q0, Mode: spexnet.ModeNodes, Name: "c", Sink: func(r spexnet.Result) { got[0] = append(got[0], r.Index) }},
				{Expr: q1, Mode: spexnet.ModeNodes, Name: "d", Sink: func(r spexnet.Result) { got[1] = append(got[1], r.Index) }},
			}
			// Four <c> candidates wait per <a>, two <d>: a cap of 3 trips the
			// first sink inside the first <a> and never the second.
			cfg := &governor.Config{Limits: governor.Limits{MaxCandidates: 3}, Policy: policy}
			net, err := spexnet.BuildSet(specs, spexnet.Options{Governor: cfg})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := net.Run(xmlstream.NewScanner(strings.NewReader(doc.String()))); err != nil {
				t.Fatal(err)
			}
			sinks := net.SinkStats()
			var idx1 []int64
			for _, a := range want1 {
				idx1 = append(idx1, a.index)
			}
			if !reflect.DeepEqual(got[1], idx1) || sinks[1].Matches != int64(len(want1)) || sinks[1].Shed || sinks[1].Degraded {
				t.Errorf("untouched sink: answers %v (%+v), oracle %v", got[1], sinks[1], idx1)
			}
			switch policy {
			case governor.PolicyShed:
				if !sinks[0].Shed || len(got[0]) != 0 {
					t.Errorf("shed sink: %+v, delivered %v; want shed before its first answer", sinks[0], got[0])
				}
			case governor.PolicyDegrade:
				if !sinks[0].Degraded || sinks[0].Matches != int64(len(want0)) {
					t.Errorf("degraded sink: %+v, want degraded with the exact count %d", sinks[0], len(want0))
				}
			}
		})
	}
}

func (a oracleAnswer) String() string { return fmt.Sprintf("%d:%s", a.index, a.xml) }
