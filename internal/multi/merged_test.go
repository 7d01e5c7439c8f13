package multi

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/governor"
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

// TestMergedSetRewind pins which documents a standing set's network survives.
// After a document that ran to its end with nothing cut short the network is
// the same one, rewound; after malformed input, a source error, a governor
// trip (failed or shed), answer limits that released the network, or a
// callback that panicked, it is another, built from the same compiled program
// against the same symbol table. Either way the document that follows reads
// what it reads on a new set, and the all-pruned set, which has no network,
// rewinds to itself.
func TestMergedSetRewind(t *testing.T) {
	good := `<f><m><s/><t>x</t></m><m><t>y</t></m><m><s/></m></f>`
	other := `<f><m><s/></m><g><m><t/></m></g></f>`
	queries := map[string]string{"s": "f.m[s]", "st": "f.m[s].t", "m": "_*.m", "dead": `f.m[@x="1" and @x="2"]`}
	newSet := func(opts ...Option) (*MergedSet, map[string][]int64) {
		var subs []Subscription
		for name, expr := range queries {
			subs = append(subs, Subscription{Name: name, Plan: plan(t, expr)})
		}
		hits := recordHits(subs)
		set, err := NewMergedSet(subs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return set, hits
	}
	scan := func(set *MergedSet, doc string) xmlstream.Source {
		return xmlstream.NewScanner(strings.NewReader(doc), xmlstream.WithSymtab(set.Symtab()))
	}
	// fresh is what a new set reads on doc.
	fresh := func(doc string, opts ...Option) (map[string][]int64, map[string]int64, spexnet.Stats) {
		set, hits := newSet(opts...)
		if err := set.Run(scan(set, doc)); err != nil {
			t.Fatal(err)
		}
		return hits, set.Matches(), set.Stats()
	}
	// follow rewinds set, runs doc and compares with a new set's reading.
	follow := func(label string, set *MergedSet, hits map[string][]int64, doc string, opts ...Option) {
		t.Helper()
		clear(hits)
		if err := set.Rewind(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := set.Run(scan(set, doc)); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		wantHits, wantCounts, wantStats := fresh(doc, opts...)
		sameHits(t, label, wantHits, hits)
		if got := set.Matches(); !reflect.DeepEqual(got, wantCounts) {
			t.Errorf("%s: counts %v, a new set %v", label, got, wantCounts)
		}
		if got := set.Stats(); !reflect.DeepEqual(got, wantStats) {
			t.Errorf("%s: stats %+v, a new set %+v", label, got, wantStats)
		}
	}

	set, hits := newSet()
	net, prog, symtab := set.net, set.prog, set.symtab
	if err := set.Run(scan(set, good)); err != nil {
		t.Fatal(err)
	}
	for i, doc := range []string{other, good, other} {
		follow(fmt.Sprintf("clean pass %d", i+2), set, hits, doc)
		if set.net != net {
			t.Fatalf("clean pass %d built a network", i+2)
		}
	}

	unclean := map[string]func(set *MergedSet) (opts []Option){
		"malformed input": func(set *MergedSet) []Option {
			if err := set.Run(scan(set, `<f><m><s/></m>`)); err == nil {
				t.Fatal("truncated document ran clean")
			}
			return nil
		},
		"source error": func(set *MergedSet) []Option {
			src := &erroringSource{src: scan(set, good), after: 5}
			if err := set.Run(src); err != errSource {
				t.Fatalf("source error: got %v", err)
			}
			return nil
		},
		"callback panic": func(set *MergedSet) []Option {
			onHit := set.subs[0].OnHit
			for i := range set.subs {
				set.subs[i].OnHit = func(string, spexnet.Result) { panic("callback") }
			}
			func() {
				defer func() { _ = recover() }()
				_ = set.Run(scan(set, good))
				t.Fatal("the callback did not panic")
			}()
			for i := range set.subs {
				set.subs[i].OnHit = onHit
			}
			return nil
		},
	}
	for label, spoil := range unclean {
		if err := set.Rewind(); err != nil {
			t.Fatal(err)
		}
		spoil(set)
		was := set.net
		follow("after "+label, set, hits, good)
		if set.net == was {
			t.Errorf("after %s the network was kept", label)
		}
		was = set.net
		follow("second pass after "+label, set, hits, other)
		if set.net != was {
			t.Errorf("the second pass after %s built a network again", label)
		}
	}
	if set.prog != prog || set.symtab != symtab {
		t.Error("rebuilding the network replaced the compiled program or the symbol table")
	}

	governed := map[string]*governor.Config{
		"governor fail": {Limits: governor.Limits{MaxDepth: 2}, Policy: governor.PolicyFail},
		"governor shed": {Limits: governor.Limits{MaxDepth: 2}, Policy: governor.PolicyShed},
	}
	for label, gov := range governed {
		set, hits := newSet(WithGovernor(gov))
		err := set.Run(scan(set, good))
		if st := set.Stats(); st.Governor.Trips == 0 {
			t.Fatalf("%s: nothing tripped (err %v)", label, err)
		}
		was := set.net
		// The document that tripped trips again on a new network, and on a
		// new set: the comparison is with that.
		clear(hits)
		if err := set.Rewind(); err != nil {
			t.Fatal(err)
		}
		if set.net == was {
			t.Errorf("after a %s trip the network was kept", label)
		}
		if err := set.Run(scan(set, `<f><g/></f>`)); err != nil {
			t.Fatalf("%s: a document within the caps: %v", label, err)
		}
		was = set.net
		follow("clean pass after "+label, set, hits, `<f><m/></f>`, WithGovernor(gov))
		if set.net != was {
			t.Errorf("%s: a clean governed pass built a network", label)
		}
	}

	// Every answer limit reached: the network is released at the determining
	// event, and built again for the next document.
	subs := []Subscription{{Name: "first", Plan: plan(t, "_*.m limit 1")}}
	limitHits := recordHits(subs)
	limited, err := NewMergedSet(subs)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 3; pass++ {
		was := limited.net
		if pass > 1 {
			if err := limited.Rewind(); err != nil {
				t.Fatal(err)
			}
			if limited.net == was {
				t.Errorf("pass %d: a released network was kept", pass)
			}
		}
		clear(limitHits)
		if err := limited.Run(scan(limited, good)); err != nil {
			t.Fatal(err)
		}
		if !limited.Determined() || len(limitHits["first"]) != 1 || limited.Matches()["first"] != 1 {
			t.Errorf("pass %d: determined %v, hits %v, counts %v", pass, limited.Determined(), limitHits, limited.Matches())
		}
	}

	pruned, err := NewMergedSet([]Subscription{{Name: "a", Plan: plan(t, `f[@x="1" and @x="2"]`)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := pruned.Rewind(); err != nil || !pruned.Determined() || pruned.Degree() != 0 {
		t.Errorf("all-pruned set after Rewind: %v, determined %v, degree %d", err, pruned.Determined(), pruned.Degree())
	}
}

var errSource = errors.New("source failed")

// erroringSource fails after a number of events.
type erroringSource struct {
	src   xmlstream.Source
	after int
}

func (s *erroringSource) Next() (xmlstream.Event, error) {
	if s.after--; s.after < 0 {
		return xmlstream.Event{}, errSource
	}
	return s.src.Next()
}
