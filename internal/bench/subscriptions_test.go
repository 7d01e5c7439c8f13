package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/multi"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// corpusSubscriptions compiles generated queries into named subscriptions.
func corpusSubscriptions(t *testing.T, queries []string) []multi.Subscription {
	t.Helper()
	subs := make([]multi.Subscription, len(queries))
	for i, q := range queries {
		plan, err := core.Prepare(q)
		if err != nil {
			t.Fatalf("generated query %q does not parse: %v", q, err)
		}
		subs[i] = multi.Subscription{Name: fmt.Sprintf("s%03d:%s", i, q), Plan: plan}
	}
	return subs
}

func TestSharedSubscriptionsDeterministicAndParseable(t *testing.T) {
	a := SharedSubscriptions(64, 0.6, 2003)
	b := SharedSubscriptions(64, 0.6, 2003)
	if len(a) != 64 {
		t.Fatalf("len = %d, want 64", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("not deterministic at %d: %q vs %q", i, a[i], b[i])
		}
	}
	corpusSubscriptions(t, a)
	// The corpus must actually overlap: duplicates and unsatisfiable
	// members are both part of the generated shape.
	seen := map[string]bool{}
	dups, unsat := 0, 0
	for _, q := range a {
		if seen[q] {
			dups++
		}
		seen[q] = true
		if strings.Contains(q, `@spex="a"`) {
			unsat++
		}
	}
	if dups == 0 {
		t.Error("no duplicate queries in a 0.6-overlap corpus")
	}
	if unsat == 0 {
		t.Error("no unsatisfiable queries in the corpus")
	}
	// Zero overlap still parses and still sprinkles unsatisfiable members.
	corpusSubscriptions(t, SharedSubscriptions(32, 0, 1))
}

// TestSDISharedSweepCrossChecks evaluates the overlapping corpus — exact
// duplicates, equivalent rephrasings, contained narrowings, shared spines
// and statically unsatisfiable members — at two sizes over a DMOZ-shaped
// document, once through the merged set network and once query by query on
// private networks: every subscription must count the same answers, and the
// merged network must be smaller than the private ones and have pruned the
// unsatisfiable members.
func TestSDISharedSweepCrossChecks(t *testing.T) {
	doc := Dataset("dmoz-structure", 0.001).Bytes()
	// The corpus carries attribute predicates, so the scanner must deliver
	// attributes for the unsatisfiable members' private networks.
	scan := func(symtab *xmlstream.Symtab) xmlstream.Source {
		return xmlstream.NewScanner(bytes.NewReader(doc),
			xmlstream.WithText(false), xmlstream.WithAttributes(true), xmlstream.WithSymtab(symtab))
	}
	for _, n := range []int{8, 24} {
		subs := corpusSubscriptions(t, SharedSubscriptions(n, SDISharedOverlap, 2003))
		set, err := multi.NewMergedSet(subs)
		if err != nil {
			t.Fatal(err)
		}
		if err := set.Run(scan(set.Symtab())); err != nil {
			t.Fatal(err)
		}
		merged := set.Matches()
		var total int64
		for _, sub := range subs {
			stats, err := sub.Plan.Evaluate(scan(sub.Plan.Symtab()), core.EvalOptions{Mode: spexnet.ModeCount})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := merged[sub.Name], stats.Output.Matches; got != want {
				t.Errorf("%d subs: %s: merged counted %d answers, alone %d", n, sub.Name, got, want)
			}
			total += stats.Output.Matches
		}
		if total == 0 {
			t.Errorf("%d subs: the corpus found no answers at all", n)
		}
		st := set.MergeStats()
		if st.MergedTransducers <= 0 || st.NaiveTransducers <= st.MergedTransducers {
			t.Errorf("%d subs: no sharing: %+v", n, st)
		}
		if st.Pruned == 0 {
			t.Errorf("%d subs: nothing pruned (the corpus sprinkles unsatisfiable queries): %+v", n, st)
		}
	}
}
