package multi

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

func plan(t *testing.T, expr string) *core.Plan {
	t.Helper()
	p, err := core.Prepare(expr)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// singleHits is the reference the set engines are cross-validated against:
// every subscription evaluated on its own private network, one stream pass
// per query (core.Plan.Evaluate), with no code of this package involved.
// It returns the answer indices per subscription name, in delivery order.
func singleHits(t *testing.T, subs []Subscription, doc func() xmlstream.Source) map[string][]int64 {
	t.Helper()
	hits := map[string][]int64{}
	for _, sub := range subs {
		name := sub.Name
		_, err := sub.Plan.Evaluate(doc(), core.EvalOptions{
			Mode: spexnet.ModeNodes,
			Sink: func(r spexnet.Result) { hits[name] = append(hits[name], r.Index) },
		})
		if err != nil {
			t.Fatalf("single evaluation of %s: %v", name, err)
		}
	}
	return hits
}

// recordHits points every subscription's OnHit at one map of answer indices
// keyed by subscription name.
func recordHits(subs []Subscription) map[string][]int64 {
	hits := map[string][]int64{}
	for i := range subs {
		subs[i].OnHit = func(s string, r spexnet.Result) { hits[s] = append(hits[s], r.Index) }
	}
	return hits
}

// sameHits requires got to reproduce the reference exactly: the same answers
// in the same order for every subscription, and none the reference lacks.
func sameHits(t *testing.T, label string, want, got map[string][]int64) {
	t.Helper()
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Fatalf("%s: %s: single %v vs set %v", label, name, w, g)
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: %s: single %v vs set %v", label, name, w, g)
			}
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok && len(got[name]) > 0 {
			t.Fatalf("%s: %s: set-only hits %v", label, name, got[name])
		}
	}
}

func TestMultiQuerySinglePass(t *testing.T) {
	doc := `<feed><msg><sport/><title>x</title></msg><msg><politics/><title>y</title></msg><msg><sport/></msg></feed>`
	subs := []Subscription{
		{Name: "sport", Plan: plan(t, "feed.msg[sport]")},
		{Name: "politics", Plan: plan(t, "feed.msg[politics]")},
		{Name: "titled", Plan: plan(t, "_*.msg[title]")},
	}
	hits := recordHits(subs)
	set, err := NewMergedSet(subs)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Run(xmlstream.NewScanner(strings.NewReader(doc))); err != nil {
		t.Fatal(err)
	}
	// Element indices: feed@1 msg@2 sport@3 title@4 msg@5 politics@6
	// title@7 msg@8 sport@9.
	want := map[string][]int64{
		"sport":    {2, 8},
		"politics": {5},
		"titled":   {2, 5},
	}
	sameHits(t, "pinned", want, hits)
	counts := set.Matches()
	if counts["sport"] != 2 || counts["politics"] != 1 || counts["titled"] != 2 {
		t.Fatalf("Matches: %v", counts)
	}
}

func TestMultiFeedIncremental(t *testing.T) {
	var sportHits int
	subs := []Subscription{
		{Name: "s", Plan: plan(t, "f.m[s]"), OnHit: func(string, spexnet.Result) { sportHits++ }},
	}
	set, err := NewMergedSet(subs)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(ev xmlstream.Event) {
		t.Helper()
		if err := set.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	feed(xmlstream.Event{Kind: xmlstream.StartDocument})
	feed(xmlstream.Start("f"))
	feed(xmlstream.Start("m"))
	feed(xmlstream.Start("s"))
	feed(xmlstream.End("s"))
	if sportHits != 1 {
		t.Fatalf("progressive delivery: got %d hits mid-stream, want 1", sportHits)
	}
	feed(xmlstream.End("m"))
	feed(xmlstream.End("f"))
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
}
