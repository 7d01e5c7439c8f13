package spexnet

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rpeq"
	"repro/internal/xmlstream"
)

// runOn evaluates expr over the given document (as XML text), in count
// mode, returning the stats.
func runOn(t *testing.T, expr string, doc *dataset.Doc) Stats {
	t.Helper()
	net, err := Build(rpeq.MustParse(expr), Options{Mode: ModeCount})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := net.Run(doc.Stream())
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestDepthStackBound validates Lemma V.2: depth stacks hold at most d
// entries (plus the document node), for all transducers, however large the
// stream.
func TestDepthStackBound(t *testing.T) {
	for _, d := range []int{5, 50, 400} {
		stats := runOn(t, "_*.a[a].a", dataset.Recursive("a", d))
		if stats.MaxDepth != d {
			t.Fatalf("depth %d: stream depth measured %d", d, stats.MaxDepth)
		}
		if stats.MaxStack > d+1 {
			t.Errorf("depth %d: max stack %d exceeds d+1", d, stats.MaxStack)
		}
		if stats.MaxStack < d {
			t.Errorf("depth %d: max stack %d suspiciously small", d, stats.MaxStack)
		}
	}
}

// TestSparseStackBound tightens the same lemma: stacks hold one entry per
// armed level, not per open level. A child path that never matches below the
// root keeps every stack at a handful of entries however deep the document
// is — while TestDepthStackBound's closure query, which arms every level,
// still needs its d entries.
func TestSparseStackBound(t *testing.T) {
	const d = 400
	net, err := Build(rpeq.MustParse("feed.entry.title"), Options{Mode: ModeCount})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := net.Run(dataset.Recursive("a", d).Stream())
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxDepth != d {
		t.Fatalf("stream depth measured %d, want %d", stats.MaxDepth, d)
	}
	perNode := net.TransducerStats()
	if len(perNode) != net.Degree() {
		t.Fatalf("%d transducer stats for %d transducers", len(perNode), net.Degree())
	}
	for name, st := range perNode {
		if st.MaxStack > 3 {
			t.Errorf("%s: max stack %d on a depth-%d document with one armed level, want ≤ 3", name, st.MaxStack, d)
		}
	}
}

// TestFormulaSizeConstantWithoutQualifiers validates the §V case analysis
// for rpeq*: without qualifiers the only condition formula is "true", so
// σ(φ) = 1.
func TestFormulaSizeConstantWithoutQualifiers(t *testing.T) {
	for _, expr := range []string{"_*.a", "a+.b+", "(a|b).c?", "_*._"} {
		stats := runOn(t, expr, dataset.RandomTree(11, 6, 3, nil))
		if stats.MaxFormula > 1 {
			t.Errorf("%s: max formula size %d, want 1", expr, stats.MaxFormula)
		}
	}
}

// TestFormulaSizeQualifiersNoClosure validates the rpeq! case: with n
// qualifiers and no closure, formulas are conjunctions of at most min(n,d)
// variables.
func TestFormulaSizeQualifiersNoClosure(t *testing.T) {
	// Query with n=3 qualifiers along a child path.
	expr := "a[a].a[a].a[a].a"
	stats := runOn(t, expr, dataset.Recursive("a", 40))
	// σ ≤ min(n,d) = 3 variables (+1 tolerance for the conjunction with
	// a constant during construction).
	if stats.MaxFormula > 4 {
		t.Errorf("max formula size %d, want ≤ 4", stats.MaxFormula)
	}
}

// TestFormulaSizeClosureQualifier validates the rpeq*! case on the
// sequential-matching assumption of Remark V.1: with normalization, a
// qualifier over a closure step keeps Σnᵢ ≤ d, so formulas stay linear in
// the depth.
func TestFormulaSizeClosureQualifier(t *testing.T) {
	for _, d := range []int{8, 16, 32} {
		stats := runOn(t, "_+[q]._", dataset.Ladder(d))
		if stats.MaxFormula > d+1 {
			t.Errorf("depth %d: max formula %d exceeds d+1", d, stats.MaxFormula)
		}
	}
}

// TestNestedMatchingNeedsStack exercises the Theorem IV.1 scenario: the
// query a must select only children of the root, not the arbitrarily deeply
// nested a elements below them — which requires counting nesting, i.e. a
// pushdown store.
func TestNestedMatchingNeedsStack(t *testing.T) {
	for _, d := range []int{3, 20, 100} {
		var sb strings.Builder
		// Root r with one a child containing a chain of d nested a's.
		sb.WriteString("<r>")
		for i := 0; i < d; i++ {
			sb.WriteString("<a>")
		}
		for i := 0; i < d; i++ {
			sb.WriteString("</a>")
		}
		sb.WriteString("<x><a></a></x>")
		sb.WriteString("</r>")
		node := rpeq.MustParse("r.a")
		var count int
		net, err := Build(node, Options{Mode: ModeNodes, Sink: func(r Result) {
			count++
			if r.Index != 2 {
				t.Errorf("depth %d: selected index %d, want only 2", d, r.Index)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(srcOf(sb.String())); err != nil {
			t.Fatal(err)
		}
		if count != 1 {
			t.Errorf("depth %d: selected %d nodes, want 1", d, count)
		}
	}
}

// TestConstantMemoryAcrossSizes validates the §VI observation that SPEX
// memory does not grow with the stream: for a class-1 query over
// DMOZ-shaped documents of growing size, the structural memory (stack
// entries, queued candidates, buffered events) stays bounded by the
// (constant) depth.
func TestConstantMemoryAcrossSizes(t *testing.T) {
	var prev Stats
	for i, scale := range []float64{0.0005, 0.002, 0.008} {
		stats := runOn(t, "_*.Topic.Title", dataset.DMOZStructure(scale))
		if stats.MaxStack > stats.MaxDepth+1 {
			t.Errorf("scale %v: stack %d exceeds depth bound", scale, stats.MaxStack)
		}
		if stats.Output.MaxBufferedEvs != 0 {
			t.Errorf("scale %v: count mode buffered %d events", scale, stats.Output.MaxBufferedEvs)
		}
		if stats.Output.MaxQueued > 4 {
			t.Errorf("scale %v: %d candidates queued; class-1 queries decide immediately", scale, stats.Output.MaxQueued)
		}
		if i > 0 && stats.MaxStack > prev.MaxStack+1 {
			t.Errorf("structural memory grew with stream size: %d → %d", prev.MaxStack, stats.MaxStack)
		}
		prev = stats
	}
}

// TestFutureConditionBuffering: a class-2 query ("future condition") must
// buffer candidates until the qualifier resolves, and release them then —
// the §III.8 "buffers messages only if their membership ... is not yet
// determined".
func TestFutureConditionBuffering(t *testing.T) {
	// name precedes province in each country? No: the generator puts
	// name first, so _*.country[province].name is a future condition.
	stats := runOn(t, "_*.country[province].name", dataset.Mondial(0.05))
	if stats.Output.MaxQueued == 0 {
		t.Error("future condition should queue undetermined candidates")
	}
	if stats.Output.Matches == 0 || stats.Output.Dropped == 0 {
		t.Errorf("expected both matches and drops, got %+v", stats.Output)
	}
	// Past condition: religions comes after the provinces, so for
	// countries with provinces the condition is already true when the
	// candidate appears. Only candidates from province-less countries
	// (whose instance stays open until </country> and then fails) queue,
	// so the queue stays a handful of entries instead of growing with
	// the matches.
	past := runOn(t, "_*.country[province].religions", dataset.Mondial(0.05))
	if past.Output.Matches == 0 {
		t.Error("past-condition query found nothing")
	}
	if past.Output.MaxQueued > 4 {
		t.Errorf("past condition queued %d candidates; should stay bounded by religions-per-country", past.Output.MaxQueued)
	}
}

// TestNetworkSizeLinear is E8: network degree and build time are linear in
// the expression length.
func TestNetworkSizeLinear(t *testing.T) {
	type point struct{ size, degree int }
	var pts []point
	expr := "a[b]"
	for i := 0; i < 7; i++ {
		node := rpeq.MustParse(expr)
		net, err := Build(node, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, point{node.Size(), net.Degree()})
		expr += ".(a|c)+?"
		expr = strings.Replace(expr, "+?", "?", 1) // keep grammar-valid growth
	}
	for i := 1; i < len(pts); i++ {
		dDeg := pts[i].degree - pts[i-1].degree
		dSize := pts[i].size - pts[i-1].size
		if dSize <= 0 {
			t.Fatalf("expression did not grow: %+v", pts)
		}
		if dDeg > 6*dSize {
			t.Errorf("network growth superlinear: Δdegree=%d for Δsize=%d", dDeg, dSize)
		}
	}
}

func srcOf(doc string) xmlstream.Source {
	return xmlstream.NewScanner(strings.NewReader(doc))
}

func TestStatsReporting(t *testing.T) {
	net, err := Build(rpeq.MustParse("a.b"), Options{Mode: ModeCount})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := net.Run(srcOf("<a><b></b></a>"))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Elements != 2 || stats.MaxDepth != 2 || stats.Events != 6 {
		t.Fatalf("stats: %+v", stats)
	}
	ts := net.TransducerStats()
	if len(ts) != net.Degree() {
		t.Fatalf("TransducerStats has %d entries, degree %d", len(ts), net.Degree())
	}
	found := false
	for k := range ts {
		if strings.Contains(k, "CH(a)") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing CH(a) in %v", ts)
	}
}

func ExampleBuild() {
	node := rpeq.MustParse("_*.a[b].c")
	net, _ := Build(node, Options{Mode: ModeNodes, Sink: func(r Result) {
		fmt.Printf("%s@%d\n", r.Name, r.Index)
	}})
	net.Run(srcOf(`<a><a><c></c></a><b></b><c></c></a>`))
	// Output: c@5
}
