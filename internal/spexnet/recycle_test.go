package spexnet_test

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/governor"
	"repro/internal/rpeq"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// The recycling cases pin the two lifetimes that stopped being the
// collector's business: a candidate record goes back to the network's free
// list only when neither the document-order queue nor the openStack holds it
// (what the condition store's waiting lists still hold is voided by the
// record's generation), and a formula node lives exactly as long as the unique
// table. Answers are compared with the DOM tree-walk oracle in every mode.

// repeatDoc wraps n copies of a record in one root element.
func repeatDoc(record string, n int) string {
	return "<r>" + strings.Repeat(record, n) + "</r>"
}

// recordsUsed runs one query over doc and returns the candidates created and
// the records that served them: with no wholesale drop every record is back
// on the free list at the end of the stream.
func recordsUsed(t *testing.T, mode spexnet.ResultMode, query, doc string) (candidates int64, records int) {
	t.Helper()
	opts := spexnet.Options{Mode: mode, Sink: func(spexnet.Result) {}}
	if mode == spexnet.ModeStream {
		opts.StreamSink = spexnet.NewStreamSink(func(int64, string) {}, func(xmlstream.Event) {}, func(int64) {})
	}
	net, err := spexnet.Build(parseQuery(t, query), opts)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := net.Run(xmlstream.NewScanner(strings.NewReader(doc)))
	if err != nil {
		t.Fatal(err)
	}
	return stats.Output.Candidates, net.FreeCandidates()
}

// TestRecycleRejectedHeadStaysOpen: a negated qualifier rejects the head of
// the queue at <b/>, before its end tag. The queue lets go of it there, the
// openStack not before </a> — so the candidates opened in between (the nested
// <a>s, which the content modes are still appending to the outer one's
// siblings) must get other records.
func TestRecycleRejectedHeadStaysOpen(t *testing.T) {
	const query = `_*.a[not(b)]`
	const record = `<a>x<b/><a><c/>in</a><a>y<b/><a>deep</a></a>z</a><a><c/></a>`
	for _, n := range []int{1, 50} {
		checkModes(t, query, repeatDoc(record, n), 0)
	}
	for _, m := range allModes {
		cands, records := recordsUsed(t, m.mode, query, repeatDoc(record, 50))
		if cands != 50*5 || records == 0 || records > 4 {
			t.Errorf("%s mode: %d candidates on %d records, want 250 on 1 to 4", m.name, cands, records)
		}
	}
}

// TestRecycleUnderTwoVariables: a candidate registered under two variables is
// decided by the first — the inner qualifier's scope ends unwitnessed — leaves
// the queue as its head and is reused by the next candidate, which registers
// under the second, still unresolved variable again. When that one resolves,
// its waiting list holds the record twice: the stale reference must be void.
func TestRecycleUnderTwoVariables(t *testing.T) {
	const query = `_*.a[b].x[c].d`
	const record = `<a><x><d>1</d></x><x><d>2</d><c/></x><x><d>3</d></x><x><c/><d>4</d></x><b/><x><d>5</d><c/></x></a>` +
		`<a><x><d>6</d><c/></x><x><d>7</d></x></a>`
	for _, n := range []int{1, 40} {
		checkModes(t, query, repeatDoc(record, n), 0)
	}
	// The same shape with the outer variable killed instead of witnessed.
	checkModes(t, `_*.a[not(b)].x[c].d`, repeatDoc(record, 3), 0)
	for _, m := range allModes {
		cands, records := recordsUsed(t, m.mode, query, repeatDoc(record, 40))
		if cands != 40*7 || records == 0 || records > 4 {
			t.Errorf("%s mode: %d candidates on %d records, want 280 on 1 to 4", m.name, cands, records)
		}
	}
}

// TestRecycleBesideShedSink: two sinks wait on the variables of one shared
// qualifier. The governor sheds — or degrades — the first in the middle of an
// <a>, with its candidates still in the waiting lists; the resolutions that
// follow must pass over them, and the records the second sink keeps recycling
// must never be theirs.
func TestRecycleBesideShedSink(t *testing.T) {
	doc := repeatDoc(`<a><c>1</c><c>2</c><d>k<e/></d><c>3</c><c>4</c><b/><d>l</d></a><a><c>5</c><d>m</d><c>6</c></a>`, 20)
	q0, q1 := parseQuery(t, `_*.a[b].c`), parseQuery(t, `_*.a[b].d`)
	want0, want1 := oracle(t, q0, doc), oracle(t, q1, doc)
	for _, policy := range []governor.Policy{governor.PolicyShed, governor.PolicyDegrade} {
		t.Run(policy.String(), func(t *testing.T) {
			var got []oracleAnswer
			specs := []spexnet.Spec{
				{Expr: q0, Mode: spexnet.ModeSerialize, Name: "c", Sink: func(spexnet.Result) {}},
				{Expr: q1, Mode: spexnet.ModeSerialize, Name: "d", Sink: func(r spexnet.Result) {
					got = append(got, oracleAnswer{r.Index, xmlstream.Serialize(r.Events)})
				}},
			}
			// Four <c> candidates wait in the first <a>, two <d>: a cap of 3
			// trips the first sink there and never the second.
			cfg := &governor.Config{Limits: governor.Limits{MaxCandidates: 3}, Policy: policy}
			net, err := spexnet.BuildSet(specs, spexnet.Options{Governor: cfg})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := net.Run(xmlstream.NewScanner(strings.NewReader(doc))); err != nil {
				t.Fatal(err)
			}
			sinks := net.SinkStats()
			if !reflect.DeepEqual(got, want1) || sinks[1].Shed || sinks[1].Degraded {
				t.Errorf("untouched sink: answers %v (%+v), oracle %v", got, sinks[1], want1)
			}
			if policy == governor.PolicyDegrade && (!sinks[0].Degraded || sinks[0].Matches != int64(len(want0))) {
				t.Errorf("degraded sink: %+v, want degraded with the exact count %d", sinks[0], len(want0))
			}
			if policy == governor.PolicyShed && !sinks[0].Shed {
				t.Errorf("first sink: %+v, want shed", sinks[0])
			}
			if free := net.FreeCandidates(); free == 0 || free > 6 {
				t.Errorf("%d records on the free list, want 1 to 6", free)
			}
		})
	}
}

// TestFormulaTableBounded: over a record-structured stream the unique table
// and the candidate free list reach their size within the first records and
// stay there — read at 10 %, 50 % and 90 % of ten times the DMOZ corpus the
// other counting tests run, under the 128 subscriptions of sdi_merged. The
// table is far below the size at which Pool.Release would drop it
// (cond.TestTableDropsWhenIdle has that side), although no variable is live
// between two records.
func TestFormulaTableBounded(t *testing.T) {
	subs := bench.SharedSubscriptions(128, 0.5, 1)
	specs := make([]spexnet.Spec, len(subs))
	for i, q := range subs {
		specs[i] = spexnet.Spec{Expr: rpeq.MustParse(q), Mode: spexnet.ModeNodes, Sink: func(spexnet.Result) {}}
	}
	net, err := spexnet.BuildSet(specs, spexnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	events := dataset.DMOZStructure(0.01).Events()
	type reading struct {
		table, free int
		built       int64
	}
	var at []reading
	marks := []int{len(events) / 10, len(events) / 2, len(events) * 9 / 10}
	idle := 0
	for i, ev := range events {
		if err := net.Step(ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind != xmlstream.EndElement || ev.Name != "Topic" || net.LiveVars() != 0 {
			continue
		}
		// Between two records: every candidate is decided and delivered, so
		// every record there is sits on the free list.
		idle++
		if len(marks) > 0 && i >= marks[0] {
			marks = marks[1:]
			size, built, _ := net.FormulaTable()
			at = append(at, reading{size, net.FreeCandidates(), built})
		}
	}
	if err := net.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(at) != 3 || at[0].table == 0 || at[0].free == 0 {
		t.Fatalf("nothing to bound: %+v", at[0])
	}
	if at[1] != at[0] || at[2] != at[0] {
		t.Errorf("table nodes / free records / nodes built at 10%%, 50%%, 90%% of the stream: %+v, want three equal readings", at)
	}
	if idle < 6000 {
		t.Errorf("no variable live after %d of the records, want (nearly) all of 6900", idle)
	}
	stats := net.Stats()
	_, built, found := net.FormulaTable()
	t.Logf("%d events, %d candidates: %d nodes built, %d found, %d records", stats.Events, stats.Output.Candidates, built, found, net.FreeCandidates())
}

// TestCandidateContentReused: the content an answer waits with is copied into
// the candidate record's own buffer, and the buffer goes back to the free list
// with the record. A pass over ten times the records therefore allocates no
// more for content than a short one — appendToOpen used to make a fresh event
// slice per candidate and recycle threw it away — while one oversized answer
// is not kept: the free list never pins more than its cap per record.
func TestCandidateContentReused(t *testing.T) {
	const record = `<a><x><d k="v1">one</d><c/></x><x><d>two &amp; three</d></x><b/></a>`
	allocated := func(n int) uint64 {
		doc := repeatDoc(record, n)
		net, err := spexnet.Build(parseQuery(t, `_*.a[b].x[c].d`), spexnet.Options{Mode: spexnet.ModeSerialize, Sink: func(spexnet.Result) {}})
		if err != nil {
			t.Fatal(err)
		}
		sc := xmlstream.NewScanner(strings.NewReader(doc))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		stats, err := net.Run(sc)
		runtime.ReadMemStats(&m1)
		if err != nil || stats.Output.Matches != int64(n) {
			t.Fatalf("%d records: %d answers, %v", n, stats.Output.Matches, err)
		}
		return m1.TotalAlloc - m0.TotalAlloc
	}
	short, long := allocated(200), allocated(2000)
	if long > short+16<<10 {
		t.Errorf("2000 records allocate %d bytes, 200 allocate %d: content buffers are not reused", long, short)
	}

	big := `<a><x><d>` + strings.Repeat("<p>paragraph</p>", 4000) + `</d><c/></x><b/></a>`
	net, err := spexnet.Build(parseQuery(t, `_*.a[b].x[c].d`), spexnet.Options{Mode: spexnet.ModeSerialize, Sink: func(spexnet.Result) {}})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := net.Run(xmlstream.NewScanner(strings.NewReader(repeatDoc(strings.Repeat(record, 5)+big+strings.Repeat(record, 5), 1))))
	if err != nil {
		t.Fatal(err)
	}
	if total, per := net.FreeContentBytes(); stats.Output.MaxBufferedEvs < 12000 || total > per*net.FreeCandidates() {
		t.Errorf("%d events buffered at most; the %d free records keep %d bytes of content, want at most %d each",
			stats.Output.MaxBufferedEvs, net.FreeCandidates(), total, per)
	}
}
