package spexnet_test

import (
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
	subs := bench.SharedSubscriptions(128, 0.5, 1)
	queries := make([]setcompile.Query, len(subs))
	for i, q := range subs {
		plan, err := core.Prepare(q)
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
		t.Fatal(err)
	}
	return net
}

// TestIdleTransducersSkipped pins the active-set invariant: a transducer is
// visited only for an activation or for an event it asked for, and a
// determination goes to the condition store, not through the transducers
// between its origin and the sinks — so the per-event work
// (Stats.Deliveries/Events) stays far under the network degree. The per-hop
// broadcast engine delivered every event to every transducer — at least
// 1 × degree per event on any workload (1.34 × on the subscription set below,
// counting the copied messages); the active set with armed-or-not transducers
// and determinations on the tapes made 0.56 ×.
func TestIdleTransducersSkipped(t *testing.T) {
	t.Run("sdi", func(t *testing.T) {
		net := mergedCorpus(t, spexnet.Options{})
		stats, err := net.Run(dataset.DMOZStructure(0.001).Stream())
		if err != nil {
			t.Fatal(err)
		}
		checkDeliveries(t, stats, net.Degree(), 0.25)
	})
	t.Run("noise", func(t *testing.T) {
		// Over 90 % of the events sit in a subtree no step of the query can
		// enter: nobody asks for them. Measured 0.0107 × degree (0.12
		// deliveries per event, 0.3 × was the bound with armed-or-not
		// transducers); the bound is the measured value + 20 %.
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
		checkDeliveries(t, stats, net.Degree(), 0.0129)
	})
}

// TestDeterminationsAppliedOnce: on the subscription corpus every
// determination is applied exactly once, by the condition store — not copied
// through the 15 or so transducers between its origin and each sink — and the
// tapes carry activations only (by construction: a tape is a []*cond.Formula),
// so the three terms of a delivery account for Stats.Deliveries exactly.
func TestDeterminationsAppliedOnce(t *testing.T) {
	m := obs.NewMetrics()
	net := mergedCorpus(t, spexnet.Options{Metrics: m})
	stats, err := net.Run(dataset.DMOZStructure(0.001).Stream())
	if err != nil {
		t.Fatal(err)
	}
	applied := net.DeterminationsApplied()
	var originated, resolved, visits, activations, sent int64
	for _, ts := range m.Snapshot().Transducers {
		originated += ts.OutDet
		resolved += ts.InDet
		visits += ts.InDoc
		activations += ts.InAct
		sent += ts.OutAct
	}
	t.Logf("%d events, degree %d: %d visits, %d activations, %d determinations originated, %d applied, %d sink resolutions",
		stats.Events, net.Degree(), visits, activations, originated, applied, resolved)
	if originated == 0 || applied != originated {
		t.Errorf("%d determinations applied, %d originated: want equal and non-zero", applied, originated)
	}
	if visits != stats.Visits {
		t.Errorf("per-transducer visits sum to %d, Stats.Visits is %d", visits, stats.Visits)
	}
	// Every activation emitted is delivered, and to one reader (the input
	// transducer's initial [true] has no emitting node).
	if activations != sent+1 {
		t.Errorf("%d activations delivered, %d emitted (+1 initial)", activations, sent)
	}
	if got := visits + activations + applied; got != stats.Deliveries {
		t.Errorf("visits + activations + determinations applied = %d, Stats.Deliveries = %d", got, stats.Deliveries)
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
	t.Logf("%d events, degree %d: %.2f deliveries/event = %.4f × degree", stats.Events, degree, perEvent, perEvent/float64(degree))
	if perEvent > maxShare*float64(degree) {
		t.Errorf("%.2f deliveries/event exceeds %.4f × degree %d: idle transducers are being visited", perEvent, maxShare, degree)
	}
}
