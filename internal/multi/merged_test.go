package multi

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// TestMergedMatchesSequential cross-validates the merged engine against
// per-query single evaluation on two corpora: one with shared prefixes, an
// exact duplicate, an equivalent-after-canonicalization pair, a one-way
// containment and a statically unsatisfiable member; and one of plain
// overlapping queries where a whole query's network is shared.
func TestMergedMatchesSequential(t *testing.T) {
	doc := `<feed><msg><sport/><title>x</title></msg><msg><politics/><title>y</title></msg><msg><sport/></msg></feed>`
	src := func(symtab *xmlstream.Symtab) func() xmlstream.Source {
		return func() xmlstream.Source {
			opts := []xmlstream.ScannerOption{xmlstream.WithAttributes(true)}
			if symtab != nil {
				opts = append(opts, xmlstream.WithSymtab(symtab))
			}
			return xmlstream.NewScanner(strings.NewReader(doc), opts...)
		}
	}
	corpora := map[string]map[string]string{
		"canonicalized": {
			"sport":      "feed.msg[sport]",
			"politics":   "feed.msg[politics]",
			"titled":     "_*.msg[title]",
			"titledstar": "_*.msg[title*]", // ≡ _*.msg (nullable condition)
			"anymsg":     "_*.msg",
			"sport2":     "feed.msg[sport]", // exact duplicate of sport
			"unsat":      `feed.msg[@x="1" and @x="2"]`,
		},
		"overlapping": {
			"q1": "feed.msg[sport]",
			"q2": "feed.msg[sport].title",
			"q3": "feed.msg[politics]",
			"q4": "feed.msg",
			"q5": "_*.title",
			"q6": "feed.msg[sport]", // duplicate query: full network shared
		},
	}
	for label, queries := range corpora {
		var subs []Subscription
		for name, expr := range queries {
			subs = append(subs, Subscription{Name: name, Plan: plan(t, expr)})
		}
		want := singleHits(t, subs, src(nil))
		if len(want["sport"])+len(want["q1"]) != 2 || len(want["unsat"]) != 0 {
			t.Fatalf("%s: reference sanity: %v", label, want)
		}
		got := recordHits(subs)
		set, err := NewMergedSet(subs)
		if err != nil {
			t.Fatal(err)
		}
		if err := set.Run(src(set.Symtab())()); err != nil {
			t.Fatal(err)
		}
		sameHits(t, label, want, got)
		counts := set.Matches()
		for name := range queries {
			if counts[name] != int64(len(want[name])) {
				t.Fatalf("%s: %s: merged count %d, single %d", label, name, counts[name], len(want[name]))
			}
		}
	}
}

// TestMergedCollapsedLimits checks per-member attribution when equivalent
// queries with different answer limits collapse onto one sink: each member
// must report the shared sink's deliveries capped at its own budget, and
// the shared sink must run to the largest budget.
func TestMergedCollapsedLimits(t *testing.T) {
	doc := `<f><m/><m/><m/><m/></f>`
	hits := map[string]int{}
	subs := []Subscription{
		{Name: "one", Plan: plan(t, "f.m").Limited(1)},
		{Name: "three", Plan: plan(t, "f.m").Limited(3)},
		{Name: "all", Plan: plan(t, "f.m")},
	}
	for i := range subs {
		name := subs[i].Name
		subs[i].OnHit = func(string, spexnet.Result) { hits[name]++ }
	}
	set, err := NewMergedSet(subs)
	if err != nil {
		t.Fatal(err)
	}
	if got := set.MergeStats().Collapsed; got != 2 {
		t.Fatalf("Collapsed = %d, want 2", got)
	}
	if err := set.Run(xmlstream.NewScanner(strings.NewReader(doc), xmlstream.WithSymtab(set.Symtab()))); err != nil {
		t.Fatal(err)
	}
	if hits["one"] != 1 || hits["three"] != 3 || hits["all"] != 4 {
		t.Fatalf("delivery counts: %v", hits)
	}
	counts := set.Matches()
	if counts["one"] != 1 || counts["three"] != 3 || counts["all"] != 4 {
		t.Fatalf("Matches: %v", counts)
	}
}

// TestMergedAllPruned: a set whose every member is statically unsatisfiable
// is determined before the first event and never reads the stream.
func TestMergedAllPruned(t *testing.T) {
	subs := []Subscription{
		{Name: "a", Plan: plan(t, `f[@x="1" and @x="2"]`)},
		{Name: "b", Plan: plan(t, `f[@y="v" and not(@y)]`)},
	}
	set, err := NewMergedSet(subs)
	if err != nil {
		t.Fatal(err)
	}
	if !set.Determined() {
		t.Fatal("all-pruned set not determined before the stream")
	}
	if set.Degree() != 0 {
		t.Fatalf("Degree = %d, want 0", set.Degree())
	}
	if err := set.Run(&failingSource{t: t}); err != nil {
		t.Fatal(err)
	}
	counts := set.Matches()
	if counts["a"] != 0 || counts["b"] != 0 {
		t.Fatalf("Matches: %v", counts)
	}
	st := set.MergeStats()
	if st.Pruned != 2 || st.Live != 0 || st.MergedTransducers != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// failingSource fails the test if the engine reads from it.
type failingSource struct{ t *testing.T }

func (s *failingSource) Next() (xmlstream.Event, error) {
	s.t.Fatal("all-pruned merged set read the stream")
	return xmlstream.Event{}, nil
}

// TestMergedPrunedMixed: pruned members coexist with live ones; pruned
// members count zero, live ones count as they would alone.
func TestMergedPrunedMixed(t *testing.T) {
	doc := `<f><m/><m/></f>`
	subs := []Subscription{
		{Name: "live", Plan: plan(t, "f.m")},
		{Name: "dead", Plan: plan(t, `f.m[@x="1" and @x="2"]`)},
	}
	set, err := NewMergedSet(subs)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Run(xmlstream.NewScanner(strings.NewReader(doc), xmlstream.WithSymtab(set.Symtab()))); err != nil {
		t.Fatal(err)
	}
	counts := set.Matches()
	if counts["live"] != 2 || counts["dead"] != 0 {
		t.Fatalf("Matches: %v", counts)
	}
	st := set.MergeStats()
	if st.Pruned != 1 || st.Live != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestMergedSharesPrefixes: the merged network of a prefix-heavy corpus must
// be smaller than the sum of single-query networks, both in the static
// estimate and in the built network's actual degree. The inputs are a trie
// of divergent tails, a qualifier sub-network shared by every subscriber,
// and fifty queries that differ only in their last step — which must cost
// about one child transducer and one sink each on top of one query's
// degree, not fifty private networks.
func TestMergedSharesPrefixes(t *testing.T) {
	var fanned []string
	for i := 0; i < 50; i++ {
		fanned = append(fanned, fmt.Sprintf("_*.Topic[editor].f%d", i))
	}
	corpora := []struct {
		name  string
		exprs []string
		// tight bounds the merged degree by single + perQuery*n + slack
		// (0 = only require merged < naive).
		perQuery, slack int
	}{
		{name: "trie", exprs: []string{"_*.a.b.c.d", "_*.a.b.c.e", "_*.a.b.c.f", "_*.a.b.g", "_*.a.b.h"}},
		{name: "shared-qualifier", exprs: []string{"_*.Topic[editor].Title", "_*.Topic[editor].newsGroup", "_*.Topic.Title"}},
		{name: "last-step-fan", exprs: fanned, perQuery: 2, slack: 4},
	}
	for _, c := range corpora {
		subs := make([]Subscription, len(c.exprs))
		naiveDegree, firstDegree := 0, 0
		for i, e := range c.exprs {
			subs[i] = Subscription{Name: e, Plan: plan(t, e)}
			single, err := NewMergedSet([]Subscription{{Name: e, Plan: plan(t, e)}})
			if err != nil {
				t.Fatal(err)
			}
			naiveDegree += single.Degree()
			if i == 0 {
				firstDegree = single.Degree()
			}
		}
		set, err := NewMergedSet(subs)
		if err != nil {
			t.Fatal(err)
		}
		st := set.MergeStats()
		if st.MergedTransducers >= st.NaiveTransducers {
			t.Fatalf("%s: no static sharing: naive %d, merged %d", c.name, st.NaiveTransducers, st.MergedTransducers)
		}
		if set.Degree() >= naiveDegree {
			t.Fatalf("%s: merged degree %d not below naive %d", c.name, set.Degree(), naiveDegree)
		}
		if max := firstDegree + c.perQuery*len(subs) + c.slack; c.perQuery > 0 && set.Degree() > max {
			t.Fatalf("%s: sharing weaker than expected: %d transducers for %d queries, single %d, bound %d",
				c.name, set.Degree(), len(subs), firstDegree, max)
		}
	}
}
