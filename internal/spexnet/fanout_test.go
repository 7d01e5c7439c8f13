package spexnet

import (
	"fmt"
	"testing"

	"repro/internal/rpeq"
)

// TestFanoutInsertion: in a multi-query network with shared prefixes the
// shared tape's writer has every consumer among its destinations — the k-way
// multicast that used to be an FO junction is the writer's out-degree — while a
// single-query network shares nothing.
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
		t.Fatal("shared-prefix network has no sharing points")
	}
	// The qualifier's output is VC's (the join behind it is wiring): VC writes
	// the eight CH(c_i) and the condition's CH(b). No node is a connector.
	for i := range net.nodes {
		node := &net.nodes[i]
		switch name := node.t.name(); name {
		case "VC(q)":
			if got := node.out.hi - node.out.lo; got != 9 {
				t.Fatalf("VC(q) has %d destinations, want 9", got)
			}
		case "SP", "JO", "FO", "VF(q+)", "VD":
			t.Fatalf("node %d is the connector %s", i, name)
		}
	}

	// And the shared network must still evaluate correctly: only the
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

// TestFanoutTopologicalOrder: every destination of a port must come after the
// port's node, or messages of a step would be dropped; and every node but the
// ones reading the source has a writer.
func TestFanoutTopologicalOrder(t *testing.T) {
	var specs []Spec
	for i := 0; i < 20; i++ {
		specs = append(specs, Spec{Expr: rpeq.MustParse(fmt.Sprintf("_*.Topic[editor].f%d", i)), Mode: ModeCount})
	}
	net, err := BuildSet(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	written := make([]bool, len(net.nodes))
	for _, d := range net.dests[net.source.lo:net.source.hi] {
		written[d] = true
	}
	for i := range net.nodes {
		out := &net.nodes[i].out
		for _, d := range net.dests[out.lo:out.hi] {
			if d < 0 {
				continue // a determinant: it runs at emission
			}
			if int(d) <= i {
				t.Fatalf("node %d (%s) writes the earlier node %d (%s)",
					i, net.nodes[i].t.name(), d, net.nodes[d].t.name())
			}
			written[d] = true
		}
	}
	for i, ok := range written {
		if !ok {
			t.Fatalf("node %d (%s) has no writer", i, net.nodes[i].t.name())
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
