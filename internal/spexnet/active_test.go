package spexnet_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/multi"
	"repro/internal/rpeq"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// TestIdleTransducersSkipped pins the active-set invariant: a document event
// is delivered only to transducers that hold state or receive a message with
// it, so the per-event work (Stats.Deliveries/Events) stays well under the
// network degree. The per-hop broadcast engine delivered every event to every
// transducer — at least 1 × degree per event on any workload (1.34 × on the
// subscription set below, counting the copied messages).
func TestIdleTransducersSkipped(t *testing.T) {
	t.Run("sdi", func(t *testing.T) {
		// The benchmark's sdi_merged corpus in one merged network.
		queries := bench.SharedSubscriptions(128, 0.5, 1)
		subs := make([]multi.Subscription, len(queries))
		for i, q := range queries {
			plan, err := core.Prepare(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			subs[i] = multi.Subscription{Name: q, Plan: plan}
		}
		set, err := multi.NewMergedSet(subs)
		if err != nil {
			t.Fatal(err)
		}
		if err := set.Run(dataset.DMOZStructure(0.001).Stream()); err != nil {
			t.Fatal(err)
		}
		checkDeliveries(t, set.Stats(), set.Degree(), 0.75)
	})
	t.Run("noise", func(t *testing.T) {
		// Over 90 % of the events sit in a subtree no step of the query can
		// enter: only the transducers armed above it see them.
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
		checkDeliveries(t, stats, net.Degree(), 0.3)
	})
}

func checkDeliveries(t *testing.T, stats spexnet.Stats, degree int, maxShare float64) {
	t.Helper()
	perEvent := float64(stats.Deliveries) / float64(stats.Events)
	t.Logf("%d events, degree %d: %.1f deliveries/event = %.2f × degree", stats.Events, degree, perEvent, perEvent/float64(degree))
	if perEvent > maxShare*float64(degree) {
		t.Errorf("%.1f deliveries/event exceeds %.2f × degree %d: idle transducers are being visited", perEvent, maxShare, degree)
	}
}
