package spexnet

import (
	"fmt"
	"testing"

	"repro/internal/rpeq"
)

// TestFanoutInsertion: a multi-query network with shared prefixes must route
// the shared tape through explicit FO junctions — every tape single-reader —
// while a single-query network stays junction-free.
func TestFanoutInsertion(t *testing.T) {
	single, err := Build(rpeq.MustParse("_*.a[b].c"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := single.Fanouts(); got != 0 {
		t.Fatalf("single-query network has %d fan-outs, want 0", got)
	}

	specs := make([]Spec, 8)
	counts := make([]int64, 8)
	for i := range specs {
		i := i
		specs[i] = Spec{
			Expr: rpeq.MustParse(fmt.Sprintf("_*.a[b].c%d", i)),
			Mode: ModeNodes,
			Sink: func(Result) { counts[i]++ },
		}
	}
	net, err := BuildSet(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Fanouts(); got == 0 {
		t.Fatal("shared-prefix network has no fan-out junctions")
	}
	// Every tape must now have exactly one reader: a written tape wakes its
	// reader, which clears it, so a second reader would see nothing and a
	// tape without one would never be cleared.
	readers := map[*tape]int{}
	for i := range net.nodes {
		for _, tape := range net.nodes[i].ins {
			readers[tape]++
		}
	}
	for _, tape := range net.tapes {
		if n := readers[tape]; n != 1 {
			t.Fatalf("tape %p has %d readers after fan-out insertion", tape, n)
		}
	}

	// And the reordered network must still evaluate correctly: only the
	// first <a> has a <b> child, so only its c-children match.
	doc := `<a><b/><c0/><c3/><c7/></a><a><c1/></a>`
	if _, err := net.Run(srcOf("<r>" + doc + "</r>")); err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 0, 0, 1, 0, 0, 0, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("query %d: got %d matches, want %d (all: %v)", i, counts[i], w, counts)
		}
	}
}

// TestFanoutTopologicalOrder: after fan-out insertion each junction must
// appear before all of its readers, or messages of a step would be dropped.
func TestFanoutTopologicalOrder(t *testing.T) {
	var specs []Spec
	for i := 0; i < 20; i++ {
		specs = append(specs, Spec{Expr: rpeq.MustParse(fmt.Sprintf("_*.Topic[editor].f%d", i)), Mode: ModeCount})
	}
	net, err := BuildSet(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	producerAt := map[*tape]int{} // tape -> node index producing it
	for i := range net.nodes {
		for _, tape := range net.nodes[i].outs {
			producerAt[tape] = i
		}
	}
	for i := range net.nodes {
		for _, tape := range net.nodes[i].ins {
			if p, ok := producerAt[tape]; ok && p >= i {
				t.Fatalf("node %d (%s) reads tape %p produced by later node %d (%s)",
					i, net.nodes[i].t.name(), tape, p, net.nodes[p].t.name())
			}
		}
	}
}

// TestFanoutAgreesWithSoloQueries: identical answers whether queries run in
// one shared network (with fan-outs) or one network each.
func TestFanoutAgreesWithSoloQueries(t *testing.T) {
	queries := []string{"_*.a[b].c", "_*.a.c", "_*.a[b]", "_*.c", "_*.a[b].c"}
	doc := `<a><a><c>first</c></a><b/><c>second</c></a>`

	shared := make([]int64, len(queries))
	var specs []Spec
	for i, q := range queries {
		i := i
		specs = append(specs, Spec{Expr: rpeq.MustParse(q), Mode: ModeNodes, Sink: func(Result) { shared[i]++ }})
	}
	net, err := BuildSet(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(srcOf(doc)); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		solo, err := Build(rpeq.MustParse(q), Options{Mode: ModeCount})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := solo.Run(srcOf(doc))
		if err != nil {
			t.Fatal(err)
		}
		if shared[i] != stats.Output.Matches {
			t.Errorf("%s: shared %d vs solo %d", q, shared[i], stats.Output.Matches)
		}
	}
}
