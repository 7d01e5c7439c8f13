package spexnet

import (
	"fmt"

	"repro/internal/obs"
)

// Fig. 11 is the specification; what runs is its lowering. compile walks the
// translation C as the paper writes it, tape by tape, but only the constructs
// that keep something across events become nodes: CH, CL, VC, UN, the value
// tests, the axes, DROP and OU. The connectors that only copy a formula from
// one tape to the next are wiring, decided here, at build time:
//
//   - SP is two names for one tape (split): whoever reads either branch
//     becomes a destination of the tape's writers.
//   - JO is one tape with the writers of both (join). Its reader gets the
//     activations in the order they are emitted, and in every construct of C
//     the left branch is built — hence visited — before the right one, so
//     that is JO's order: left branch first.
//   - FO never exists: a tape read by several consumers is several
//     destinations of its writers.
//   - VF(q+)→VD, which turns an activation into determinations and emits
//     nothing, is an edge function (determinant) run where the activation is
//     emitted.
//
// A wire is a tape of Fig. 11 during the build: the output ports that write
// it. Wires keep the identity the tapes had — the two branches of a split are
// different wires — so hash-consing shares exactly what it shared when the
// connectors were nodes.
type wireID int32

type wire struct {
	lo, hi  int32 // its writers: builder.writers[lo:hi], in topological order
	readers int32
}

// edge connects an output port (a node index, -1 for the source) to a
// destination as Network.dests encodes it.
type edge struct{ from, to int32 }

type builder struct {
	net     *Network
	memo    map[memoKey]memoEntry
	wires   []wire
	writers []int32
	edges   []edge
}

// newWire returns a wire written by the given ports.
func (b *builder) newWire(writers ...int32) wireID {
	lo := int32(len(b.writers))
	b.writers = append(b.writers, writers...)
	b.wires = append(b.wires, wire{lo: lo, hi: int32(len(b.writers))})
	return wireID(len(b.wires) - 1)
}

// read makes dest a destination of every writer of w.
func (b *builder) read(w wireID, dest int32) {
	wr := &b.wires[w]
	wr.readers++
	for _, p := range b.writers[wr.lo:wr.hi] {
		b.edges = append(b.edges, edge{p, dest})
	}
}

// split is SP: both branches carry what w carries.
func (b *builder) split(w wireID) (left, right wireID) {
	wr := b.wires[w]
	b.wires[w].readers++
	b.wires = append(b.wires, wire{lo: wr.lo, hi: wr.hi}, wire{lo: wr.lo, hi: wr.hi})
	return wireID(len(b.wires) - 2), wireID(len(b.wires) - 1)
}

// join is JO: a wire carrying what either branch carries. (The order of the
// writers in the list decides nothing: the reader gets the activations in the
// order they are emitted.)
func (b *builder) join(left, right wireID) wireID {
	b.wires[left].readers++
	b.wires[right].readers++
	l, r := b.wires[left], b.wires[right]
	lo := int32(len(b.writers))
	b.writers = append(b.writers, b.writers[l.lo:l.hi]...)
	b.writers = append(b.writers, b.writers[r.lo:r.hi]...)
	b.wires = append(b.wires, wire{lo: lo, hi: int32(len(b.writers))})
	return wireID(len(b.wires) - 1)
}

// addNode appends a transducer reading wire in and returns the wire it
// writes. Construction order is topological by compositionality of C.
func (b *builder) addNode(t transducer, in wireID) wireID {
	n := b.net
	i := int32(len(n.nodes))
	b.read(in, i)
	n.nodes = append(n.nodes, netNode{t: t, out: port{net: n, node: i}})
	return b.newWire(i)
}

// addDeterminant ends a condition branch: d runs on every activation emitted
// onto wire in.
func (b *builder) addDeterminant(d *determinant, in wireID) {
	n := b.net
	b.read(in, ^int32(len(n.dets)))
	n.dets = append(n.dets, d)
}

// portOf returns the output port a writer index stands for.
func (n *Network) portOf(writer int32) *port {
	if writer < 0 {
		return &n.source
	}
	return &n.nodes[writer].out
}

// finish ends the build once every query has compiled: the edges become the
// ports' destination ranges (each in the order its readers were built) and
// every node gets its inbox and its bit of the active set, empty until <$>
// arrives. With a registry, the per-node instruments are attached.
func (b *builder) finish(metrics *obs.Metrics) {
	n := b.net
	for _, e := range b.edges {
		n.portOf(e.from).hi++
	}
	var at int32
	for w := int32(-1); w < int32(len(n.nodes)); w++ {
		p := n.portOf(w)
		p.lo, p.hi, at = at, at, at+p.hi
	}
	n.dests = make([]int32, len(b.edges))
	for _, e := range b.edges {
		p := n.portOf(e.from)
		n.dests[p.hi] = e.to
		p.hi++
	}
	for _, w := range b.wires {
		if w.readers > 1 {
			n.fanouts++
		}
	}
	n.inboxes = make([]inbox, len(n.nodes))
	words := (len(n.nodes) + 63) / 64
	set := make([]uint64, 2*words)
	n.hot, n.armed = set[:words:words], set[words:]
	n.wakes = make([]wake, len(n.nodes))
	if metrics == nil {
		return
	}
	n.stepMsgs = new(obs.HistogramBatch)
	n.cold = make([]nodeCounters, len(n.nodes))
	tms := make([]*obs.TransducerMetrics, len(n.nodes))
	for i := range n.nodes {
		node, c := &n.nodes[i], &n.cold[i]
		c.tm = obs.NewTransducerMetrics(fmt.Sprintf("%d:%s", i, node.t.name()))
		for _, d := range n.dests[node.out.lo:node.out.hi] {
			if d >= 0 {
				c.readers++
			}
		}
		c.tm.OutDegree = int64(node.out.hi - node.out.lo)
		if o, ok := node.t.(interface{ origin() *detOrigin }); ok {
			c.dets = o.origin()
		}
		tms[i] = c.tm
	}
	metrics.SetTransducers(tms)
}

// Fanouts returns the number of sharing points in the network: the tapes of
// Fig. 11 with more than one reader, where one compiled subexpression feeds
// several queries. A single-query network reports zero. (At run time it is
// an output port with that many more destinations.)
func (n *Network) Fanouts() int { return n.fanouts }
