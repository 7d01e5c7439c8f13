package spexnet

import "repro/internal/cond"

// fanoutT is the fan-out junction FO: an explicit k-way multicast inserted
// where the output tape of a shared subexpression feeds several downstream
// consumers. It generalizes the binary split SP of §III.6 to k output ports
// but, unlike SP, it is never written by the translation C itself: the
// builder materializes one FO per multi-reader tape after hash-consing has
// identified the common subparts of a multi-query network (the "single
// transducer network ... for processing several queries having common
// subparts" of the paper's conclusion). Making the junction an explicit
// transducer gives the shared chain a single reader per tape and a node of
// its own in traces, metrics and TransducerStats, so the fan-out work of an
// SDI workload is attributable instead of hidden in tape multicast.
type fanoutT struct {
	passDoc
	ports int
	st    StackStats
}

func newFanout(ports int) *fanoutT { return &fanoutT{ports: ports} }

func (t *fanoutT) name() string { return "FO" }

func (t *fanoutT) stackStats() StackStats { return t.st }

func (t *fanoutT) feed(_ int, f *cond.Formula, emit emitFn) {
	for p := 0; p < t.ports; p++ {
		emit(p, f)
	}
}

// portRef identifies one input port of one node.
type portRef struct {
	node int
	port int
}

// insertFanouts rewires every tape read by more than one input port through
// an explicit fan-out junction: the junction becomes the tape's only reader
// and each former reader gets a private output tape of the junction. Called
// once per BuildSet, after all queries have compiled; single-query networks
// have no multi-reader tapes and come through untouched.
//
// The junctions are appended to the node list and therefore out of
// topological order (a junction must run before its readers); reorderNodes
// repairs the order afterwards.
func (b *builder) insertFanouts() {
	orig := len(b.net.nodes)
	readers := make(map[*tape][]portRef)
	for i := 0; i < orig; i++ {
		for port, tp := range b.net.nodes[i].ins {
			readers[tp] = append(readers[tp], portRef{node: i, port: port})
		}
	}
	// fanoutsAt[i] lists the junction nodes that must run just before
	// original node i (its earliest reader in the old order).
	fanoutsAt := make(map[int][]int)
	for _, tp := range b.net.tapes { // the range is fixed here: junction tapes added below have one reader
		refs := readers[tp]
		if len(refs) < 2 {
			continue
		}
		outs := b.addNode(newFanout(len(refs)), []*tape{tp}, len(refs))
		earliest := refs[0].node
		for i, ref := range refs {
			b.net.nodes[ref.node].ins[ref.port] = outs[i]
			if ref.node < earliest {
				earliest = ref.node
			}
		}
		fanoutsAt[earliest] = append(fanoutsAt[earliest], len(b.net.nodes)-1)
	}
	if len(fanoutsAt) > 0 {
		b.reorderNodes(orig, fanoutsAt)
	}
}

// reorderNodes rebuilds the node list in topological order after fan-out
// insertion: each junction is placed immediately before the earliest of its
// readers. This is sufficient — a junction's only dependency is the producer
// of its input tape, which preceded that earliest reader in the original
// (topological) order; every other node keeps its relative position.
func (b *builder) reorderNodes(orig int, fanoutsAt map[int][]int) {
	nodes := make([]netNode, 0, len(b.net.nodes))
	for i := 0; i < orig; i++ {
		for _, f := range fanoutsAt[i] {
			nodes = append(nodes, b.net.nodes[f])
		}
		nodes = append(nodes, b.net.nodes[i])
	}
	b.net.nodes = nodes
}

// Fanouts returns the number of fan-out junctions in the network: the
// sharing points where one compiled subexpression feeds several queries. A
// single-query network reports zero.
func (n *Network) Fanouts() int {
	c := 0
	for i := range n.nodes {
		if _, ok := n.nodes[i].t.(*fanoutT); ok {
			c++
		}
	}
	return c
}
