package spexnet_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/rpeq"
	"repro/internal/setcompile"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// mergedCorpus compiles the benchmark's sdi_merged corpus — 128 overlapping
// subscriptions — the way multi.MergedSet does: one sink per representative of
// the set compiler's program, in one hash-consed network.
func mergedCorpus(t *testing.T, opts spexnet.Options) *spexnet.Network {
	t.Helper()
	net, _ := compileSet(t, opts, bench.SharedSubscriptions(128, 0.5, 1)...)
	return net
}

// compileSet runs the queries through the set compiler and builds its
// representatives into one network.
func compileSet(t *testing.T, opts spexnet.Options, subs ...string) (*spexnet.Network, *setcompile.Program) {
	t.Helper()
	queries := make([]setcompile.Query, len(subs))
	for i, q := range subs {
		prepare := core.Prepare
		if strings.HasPrefix(q, "/") {
			prepare = core.PrepareXPath
		}
		plan, err := prepare(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		queries[i] = setcompile.Query{Name: q, Expr: plan.Expr(), Limit: plan.Limit()}
	}
	prog := setcompile.Compile(queries)
	specs := make([]spexnet.Spec, len(prog.Reps))
	for i, rep := range prog.Reps {
		specs[i] = spexnet.Spec{Expr: rep.Expr, Mode: spexnet.ModeNodes, Limit: rep.Limit}
	}
	net, err := spexnet.BuildSet(specs, opts)
	if err != nil {
		t.Fatalf("%v: %v", subs, err)
	}
	return net, prog
}

// nodeNames lists the network's transducers in topological order.
func nodeNames(net *spexnet.Network) []string {
	names := make([]string, net.Degree())
	for key := range net.TransducerStats() {
		i, name, _ := strings.Cut(key, ":")
		idx, _ := strconv.Atoi(i)
		names[idx] = name
	}
	return names
}

// TestLoweredShape: only what keeps state across events is a node. Fig. 11's
// _*.a[b].c — SP CL JO CH(a) VC SP CH(b) VF VD JO CH(c) OU — lowers to the six
// of them that do, and no network of the subscription corpus holds a connector.
func TestLoweredShape(t *testing.T) {
	net, err := spexnet.Build(rpeq.MustParse("_*.a[b].c"), spexnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(nodeNames(net), " "), "CL(_) CH(a) VC(q) CH(b) CH(c) OU"; got != want {
		t.Errorf("_*.a[b].c lowers to %s, want %s", got, want)
	}
	for _, name := range nodeNames(mergedCorpus(t, spexnet.Options{})) {
		switch name {
		case "SP", "JO", "FO", "VF(q+)", "VF(q-)", "VD", "VD(!)":
			t.Errorf("the subscription corpus compiles to a network with a %s node", name)
		}
	}
}

// TestLoweredDegree pins, as exact counts, what the lowering bought on the
// subscription corpus: the degree, and the visits and deliveries of one pass
// over the 1 000-topic document. With every connector a node these were 430,
// 305 930 and 532 145 — 128 SP/JO/FO and 84 VF/VD took 86 072 of the visits
// and as many activation deliveries again. A second pass over the same
// network, rewound, counts the same.
func TestLoweredDegree(t *testing.T) {
	net := mergedCorpus(t, spexnet.Options{})
	for pass := 1; pass <= 2; pass++ {
		stats, err := net.Run(dataset.DMOZStructure(0.001).Stream())
		if err != nil {
			t.Fatal(err)
		}
		if net.Degree() != 218 || stats.Transducers != 218 {
			t.Errorf("pass %d: degree %d (Stats.Transducers %d), want 218", pass, net.Degree(), stats.Transducers)
		}
		if stats.Events != 9658 || stats.Visits != 219858 || stats.Deliveries != 356539 {
			t.Errorf("pass %d: %d events, %d visits, %d deliveries; want 9658, 219858, 356539", pass, stats.Events, stats.Visits, stats.Deliveries)
		}
		net.Rewind()
	}
}

// TestMergedTransducersIsDegree holds the set compiler's static count
// (setcompile's nodeCounter, what /debug/spex and spex_setcompile_* report)
// to the network the builder makes of the same program: on the subscription
// corpus, on every construct of Fig. 11 and the extensions alone, and on all
// of them in one set.
func TestMergedTransducersIsDegree(t *testing.T) {
	check := func(subs ...string) {
		t.Helper()
		net, prog := compileSet(t, spexnet.Options{}, subs...)
		if got := prog.Stats.MergedTransducers; got != net.Degree() {
			t.Errorf("%v: MergedTransducers %d, network degree %d (%s)", subs, got, net.Degree(), strings.Join(nodeNames(net), " "))
		}
	}
	check(bench.SharedSubscriptions(128, 0.5, 1)...)
	constructs := []string{
		"a", "a+", "a*", "a?", "a.b", "(a|b)", "a[b]", "a[b*]", "a[not(b)]",
		"a.(b|c).d", "(a|b).c?", "_*.a[b].c", "_*.a[b[c]].d", "a[b].c[d]", "a[b.c?]", "a[(b|c)]",
		`a[b="x"]`, `a[@id="1"].b`, "a.b.@id", "a.@id", "//b/following::c", "//b/preceding::c",
		"//a[b]/c", "//a[not(b)]",
	}
	for _, q := range constructs {
		check(q)
	}
	check(constructs...)
}

// TestIdleTransducersSkipped pins the active-set invariant: a transducer is
// visited only for an activation or for an event it asked for, and a
// determination goes to the condition store, not through the transducers
// between its origin and the sinks — so the per-event work
// (Stats.Deliveries/Events) stays far under the network degree. The per-hop
// broadcast engine delivered every event to every transducer — at least
// 1 × degree per event on any workload (1.34 × on the subscription set below,
// counting the copied messages); the active set with armed-or-not transducers
// and determinations on the tapes made 0.56 ×, wake conditions and the
// condition store 0.128 × of a degree that was half connectors (430, 55.1
// deliveries per event). Against the lowered degree the share is higher and
// the work lower: 0.1693 × 218 = 36.9 per event; the bound is the measured
// value + 20 %.
func TestIdleTransducersSkipped(t *testing.T) {
	t.Run("sdi", func(t *testing.T) {
		net := mergedCorpus(t, spexnet.Options{})
		stats, err := net.Run(dataset.DMOZStructure(0.001).Stream())
		if err != nil {
			t.Fatal(err)
		}
		checkDeliveries(t, stats, net.Degree(), 0.2032)
	})
	t.Run("noise", func(t *testing.T) {
		// Over 90 % of the events sit in a subtree no step of the query can
		// enter: nobody asks for them. Measured 0.0112 × degree (817
		// deliveries in 10 408 events over 7 transducers; 0.3 × was the bound
		// with armed-or-not transducers); the bound is the measured value +
		// 20 %.
		var doc strings.Builder
		doc.WriteString("<root><noise>")
		for i := 0; i < 2000; i++ {
			doc.WriteString("<n><m>x</m></n>")
		}
		doc.WriteString("</noise><feed>")
		for i := 0; i < 50; i++ {
			doc.WriteString("<entry><author>a</author><title>t</title></entry>")
		}
		doc.WriteString("</feed></root>")
		net, err := spexnet.Build(rpeq.MustParse("root.feed.entry[author].title"), spexnet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := net.Run(xmlstream.NewScanner(strings.NewReader(doc.String())))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Output.Matches != 50 {
			t.Fatalf("matches: %d, want 50", stats.Output.Matches)
		}
		checkDeliveries(t, stats, net.Degree(), 0.0135)
	})
}

// TestDeterminationsAppliedOnce: on the subscription corpus every
// determination is applied exactly once, by the condition store — not copied
// through the 15 or so transducers between its origin and each sink — and the
// inboxes carry activations only (by construction: an inbox is a
// []*cond.Formula), so the three terms of a delivery account for
// Stats.Deliveries exactly. A port may have several destinations: an emission
// is counted out once per inbox it is appended to and in where it is read; the
// activations a determinant consumes are counted as the determinations they
// become, at the emitting node.
func TestDeterminationsAppliedOnce(t *testing.T) {
	m := obs.NewMetrics()
	net := mergedCorpus(t, spexnet.Options{Metrics: m})
	// The registry is cumulative; a pass's share is what it added. The second
	// pass runs on the same network, rewound: its bookmarks start over.
	var before obs.Snapshot
	for pass := 1; pass <= 2; pass++ {
		stats, err := net.Run(dataset.DMOZStructure(0.001).Stream())
		if err != nil {
			t.Fatal(err)
		}
		applied := net.DeterminationsApplied()
		snap := m.Snapshot()
		var originated, resolved, visits, activations, sent int64
		for i, ts := range snap.Transducers {
			var was obs.TransducerSnapshot
			if pass > 1 {
				was = before.Transducers[i]
			}
			originated += ts.OutDet - was.OutDet
			resolved += ts.InDet - was.InDet
			visits += ts.InDoc - was.InDoc
			activations += ts.InAct - was.InAct
			sent += ts.OutAct - was.OutAct
		}
		before = snap
		t.Logf("pass %d: %d events, degree %d: %d visits, %d activations, %d determinations originated, %d applied, %d sink resolutions",
			pass, stats.Events, net.Degree(), visits, activations, originated, applied, resolved)
		if originated == 0 || applied != originated {
			t.Errorf("pass %d: %d determinations applied, %d originated: want equal and non-zero", pass, applied, originated)
		}
		if visits != stats.Visits {
			t.Errorf("pass %d: per-transducer visits sum to %d, Stats.Visits is %d", pass, visits, stats.Visits)
		}
		// Every activation emitted is delivered, once per destination (the input
		// transducer's initial [true] has no emitting node and goes to every
		// reader of the source).
		if initial := int64(net.SourceDegree()); activations != sent+initial {
			t.Errorf("pass %d: %d activations delivered, %d emitted per destination (+%d initial)", pass, activations, sent, initial)
		}
		if got := visits + activations + applied; got != stats.Deliveries {
			t.Errorf("pass %d: visits + activations + determinations applied = %d, Stats.Deliveries = %d", pass, got, stats.Deliveries)
		}
		net.Rewind()
	}
}

// TestWakeConditions: an armed transducer is visited only for the events it
// declared — CH(title), armed inside an <entry>, for the start of a <title>
// child and the entry's end, not for the entry's ten foreign children and
// their text. The armed-or-not active set visited about three transducers per
// event here (every armed CH on every event).
func TestWakeConditions(t *testing.T) {
	var doc strings.Builder
	doc.WriteString("<feed>")
	for i := 0; i < 200; i++ {
		doc.WriteString("<entry>")
		for _, f := range []string{"id", "updated", "author", "link", "category", "summary", "content", "rights", "source", "published"} {
			doc.WriteString("<" + f + ">x</" + f + ">")
		}
		doc.WriteString("<title>t</title></entry>")
	}
	doc.WriteString("</feed>")
	net, err := spexnet.Build(rpeq.MustParse("feed.entry.title"), spexnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := net.Run(xmlstream.NewScanner(strings.NewReader(doc.String())))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Output.Matches != 200 {
		t.Fatalf("matches: %d, want 200", stats.Output.Matches)
	}
	perEvent := float64(stats.Visits) / float64(stats.Events)
	t.Logf("%d events, %d visits: %.2f visits/event", stats.Events, stats.Visits, perEvent)
	if perEvent > 0.6 {
		t.Errorf("%.2f visits/event, want at most 0.6: armed transducers are visited for events they cannot act on", perEvent)
	}
}

func checkDeliveries(t *testing.T, stats spexnet.Stats, degree int, maxShare float64) {
	t.Helper()
	perEvent := float64(stats.Deliveries) / float64(stats.Events)
	t.Logf("%d events, degree %d: %d deliveries, %.2f per event = %.4f × degree", stats.Events, degree, stats.Deliveries, perEvent, perEvent/float64(degree))
	if perEvent > maxShare*float64(degree) {
		t.Errorf("%.2f deliveries/event exceeds %.4f × degree %d: idle transducers are being visited", perEvent, maxShare, degree)
	}
}
