package spexnet

import (
	"fmt"
	"io"
	"math/bits"

	"repro/internal/cond"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/xmlstream"
)

// netNode is the hot part of one transducer of the lowered network: what a
// visit touches. Node i reads inboxes[i] — every transducer has one input, the
// connectors that had more are wiring (lower.go) — and writes its one output
// port.
type netNode struct {
	t   transducer
	out port
}

// nodeCounters is the cold part, kept only for an instrumented network: the
// node's visit count and what syncMetrics has already published of it.
type nodeCounters struct {
	// visits counts the steps in which the node was visited: the document
	// events delivered to it.
	visits int64
	// readers is the number of inboxes the node's port writes (its other
	// destinations are determinants): an emission is that many deliveries.
	readers int64
	// dets is the transducer's handle on the condition store, if it
	// originates determinations (its out_det count lives there).
	dets *detOrigin
	tm   *obs.TransducerMetrics
	// flushedIn/flushedOut hold the delivery counts already published into the
	// atomic TransducerMetrics counters, by message kind, so syncMetrics adds
	// deltas (the registry is cumulative across evaluations).
	flushedIn, flushedOut [numKinds]int64
}

// inbox holds the activation messages emitted to a node this step, by all the
// ports that write it, in emission order. All of them precede the step's
// document event — nothing else is ever sent — so an empty inbox reads as the
// bare event, which is what lets an idle writer stay unvisited.
type inbox struct {
	msgs []*cond.Formula
	// read counts the activations the node has consumed: its in_act.
	read int64
}

// port is an output of a node (or the network's source): its destinations are
// net.dests[lo:hi], each an inbox (a node index) or, complemented, a
// determinant (an index into net.dets).
type port struct {
	net    *Network
	lo, hi int32
	node   int32 // the emitting node, -1 for the source
	// sent counts the activations emitted; dets the determinations the port's
	// determinants originated from them, which are the emitting node's.
	sent, dets int64
}

// emit sends the activation message [f] to every destination of the port.
// Whatever a transducer emits during a step precedes the step's document
// event there. A destination node joins the step's active set; a determinant
// runs at once.
func (p *port) emit(f *cond.Formula) {
	n := p.net
	if n.tracer != nil && p.node >= 0 {
		n.tracer.Trace(obs.TraceEvent{Step: n.reg.step, Node: n.nodes[p.node].t.name(), Kind: obs.KindActivation, Msg: "[" + f.String() + "]", TraceID: n.cfg.traceID})
	}
	p.sent++
	for _, d := range n.dests[p.lo:p.hi] {
		if d >= 0 {
			in := &n.inboxes[d]
			in.msgs = append(in.msgs, f)
			n.hot[d>>6] |= 1 << (d & 63)
			continue
		}
		vd := n.dets[^d]
		before := vd.n
		vd.apply(f)
		p.dets += vd.n - before
	}
}

// numKinds mirrors the obs package's message-kind count (doc, activation,
// determination) for the per-node delivery counts.
const numKinds = 3

// Network is a compiled SPEX network: a single-source single-sink DAG of
// transducers (Definition 3). It is stateful and evaluates one stream at a
// time: after a document it is rewound for the next (Rewind), or, when the
// document was cut short, replaced by a fresh one (building is linear in the
// query size).
type Network struct {
	cfg   netConfig
	nodes []netNode
	// cold is parallel to nodes; nil unless the network is instrumented.
	cold    []nodeCounters
	inboxes []inbox
	// dests holds the destinations of every port, one range each; dets the
	// determinants they refer to.
	dests   []int32
	dets    []*determinant
	source  port
	fanouts int
	outs    []*outputT
	// store is the condition store: every determination goes there, never
	// into an inbox.
	store *condStore
	// reg is the document-stream register: the step's event, read in place
	// by every visited transducer.
	reg docReg
	// hot and armed are the active set, one bit per node in topological
	// order. hot holds the nodes whose inbox was written so far in this step
	// (all of them at <$>, see Step).
	// armed holds the nodes that declared a wake condition at their last
	// visit; wakes[i] is node i's condition, and propagate visits an armed
	// node without input only if the register matches it.
	hot, armed []uint64
	wakes      []wake
	// tracer, when set, observes the document event at every visit.
	tracer obs.Tracer
	// deliveries totals the per-event work: one per node visit (the document
	// event), one per activation delivered, one per determination applied by
	// the condition store. visits is the first of the three alone.
	deliveries int64
	visits     int64
	elements   int64
	depth      int
	maxDepth   int
	// allShed: the governor shed the whole network (a network-level
	// resource tripped under PolicyShed); Step keeps only the depth
	// bookkeeping from then on, so the parse completes but no state grows.
	allShed bool
	// allLimited: every sink carries an answer limit, so the whole
	// network's answer can become fixed mid-stream; Run then stops reading
	// and releases the network instead of draining the stream.
	allLimited bool
	// finished: Finish has accepted the end of the document (see Clean).
	finished bool
	// finalStats/finalSinks freeze the evaluation statistics at Release, so
	// Stats/Matches/SinkStats stay answerable after an early release (the
	// determination path tears the network down mid-stream).
	finalStats *Stats
	finalSinks []OutputStats

	// metrics, when non-nil, receives live instrument updates once per
	// step; nil networks run the uninstrumented propagate path.
	metrics *obs.Metrics
	lastOut OutputStats
	// lastStep/lastElements: the values already flushed into the registry's
	// stream counters, so syncMetrics publishes deltas (the registry is
	// cumulative across evaluations) without an atomic add per event.
	lastStep     int64
	lastElements int64
	// stepMsgs batches the per-event delivery-count observations; flushed
	// into metrics.StepMessages on the gauge stride. Nil, like cold, unless
	// the network is instrumented.
	stepMsgs *obs.HistogramBatch
}

// Stats reports what an evaluation consumed and produced; the quantities of
// §V and §VI.
type Stats struct {
	Events      int64 // document-stream events processed
	Elements    int64 // elements in the stream
	MaxDepth    int   // document depth d
	Transducers int   // network degree (Lemma V.1)
	MaxStack    int   // max depth/condition stack entries over all transducers
	MaxFormula  int   // max condition formula size σ
	// Deliveries is the per-event work summed over the stream: one per
	// transducer visited by a document event, one per activation message
	// delivered, one per determination applied by the condition store. A
	// transducer is visited only for an activation or an event it asked for,
	// so Deliveries/Events is the active part of the network, not its degree.
	Deliveries int64
	// Visits is the first term of Deliveries alone: transducer visits.
	Visits int64
	Output OutputStats // sink-side accounting
	// Governor summarizes resource-governor activity (zero when no
	// governor was configured or nothing tripped).
	Governor GovernorOutcome
	// Determined is set when every sink's answer became fixed before the
	// end of the stream (all answer limits reached): Events then reports
	// how much of the stream was actually consumed, not its full length.
	Determined bool
}

// Degree returns the number of transducers in the network, the paper's
// network degree (Lemma V.1 shows it is linear in the expression size).
func (n *Network) Degree() int { return len(n.nodes) }

// Run drives the whole stream from src through the network: the input
// transducer's role of §III.2 — emit the initial activation on the
// start-document message and forward one document message at a time, the
// next only after the previous reached the sink.
//
// When every sink carries an answer limit, Run watches the determination
// signal after each step: as soon as all sinks report their answer fixed, it
// stops reading, releases the network, and returns — the stream's suffix is
// never consumed (earliest query answering; Finish is skipped because the
// document is deliberately left half-read).
func (n *Network) Run(src xmlstream.Source) (Stats, error) {
	for {
		ev, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n.stats(), err
		}
		if err := n.Step(ev); err != nil {
			return n.stats(), err
		}
		if n.allLimited && n.AnswerDetermined() {
			if n.metrics != nil {
				n.syncMetrics()
			}
			st := n.stats()
			n.Release()
			return st, nil
		}
	}
	if err := n.Finish(); err != nil {
		return n.stats(), err
	}
	return n.stats(), nil
}

// AnswerDetermined reports whether every sink's answer is fixed: all answer
// limits have been reached, so no suffix of the stream can change what the
// network reports. Callers driving Step directly (core.Run's push-mode feed,
// under single queries and the set engine alike) poll this to disconnect
// the stream early.
func (n *Network) AnswerDetermined() bool {
	if n.finalStats != nil {
		return n.finalStats.Determined
	}
	return len(n.outs) > 0 && n.cfg.detSinks == len(n.outs)
}

// Step pushes a single event through the network. Callers using Step
// directly (e.g. unbounded streams) must call Finish after the last event
// to validate and flush the sink.
func (n *Network) Step(ev xmlstream.Event) error {
	if n.nodes == nil {
		// Released (answer determined, or torn down): a push-mode feeder
		// racing the determination signal may still deliver a few events;
		// they are ignored rather than failed.
		return nil
	}
	r := &n.reg
	r.step++
	r.depth = n.depth
	switch ev.Kind {
	case xmlstream.StartElement:
		n.elements++
		n.depth++
		if n.depth > n.maxDepth {
			n.maxDepth = n.depth
		}
		r.depth, r.index = n.depth, n.elements
	case xmlstream.EndElement:
		n.depth--
		if n.depth < 0 {
			return fmt.Errorf("spexnet: unbalanced end message %s at step %d", ev, r.step)
		}
	case xmlstream.StartDocument:
		r.index = 0
	}
	// Resolve the label symbol against the network's own table when the
	// producer did not (push-mode feeds, the encoding/xml adapter). Events
	// from a scanner sharing the table arrive pre-resolved and skip the
	// lookup entirely; either way every transducer downstream sees a
	// resolved symbol and runs integer label tests.
	if ev.Sym == 0 && !n.cfg.noInterning &&
		(ev.Kind == xmlstream.StartElement || ev.Kind == xmlstream.EndElement) {
		ev.Sym = n.cfg.symtab.Intern(ev.Name)
	}
	g := n.cfg.gov
	if g != nil {
		if g.err != nil {
			return g.err
		}
		if n.allShed {
			return nil // shed network: depth bookkeeping only
		}
		if max := g.limit(governor.ResDepth); max > 0 && n.depth > max {
			switch g.trip(governor.ResDepth, n.depth, "") {
			case governor.PolicyFail:
				return g.err
			case governor.PolicyShed:
				n.shedAllSinks()
				return nil
			}
		}
	}
	r.ev = ev
	// The input transducer: the initial activation with formula true
	// precedes the start-document message (§III.2, Example III.1). Every node
	// is visited for <$>, activated or not, and declares its wake condition
	// for itself — the preceding-axis transducer asks for every event from
	// the start.
	if ev.Kind == xmlstream.StartDocument {
		for w := range n.hot {
			n.hot[w] = ^uint64(0)
		}
		if rest := len(n.nodes) & 63; rest != 0 {
			n.hot[len(n.hot)-1] = 1<<rest - 1
		}
		n.source.emit(cond.True())
	}
	applied := n.store.applied
	total := n.propagate()
	// What the transducers emitted behind the event — scope-exit
	// finalizations — takes effect now that every sink has seen the event.
	n.store.drain()
	total += n.store.applied - applied
	n.deliveries += total
	if n.metrics != nil {
		n.stepMsgs.Observe(total)
		if r.step&(gaugeSyncStride-1) == 0 {
			n.syncMetrics()
		}
	}
	if g != nil {
		return n.governStep(total)
	}
	return nil
}

// governStep applies the network-level checks after a step's propagation:
// the sticky failure installed by any in-propagation trip (formula size,
// sink-level caps under PolicyFail), the per-step message-volume cap (the
// Lemma V.2 per-event work bound), and the live condition-variable cap (the
// depth × qualifiers invariant behind the space theorem). A trip is acted
// on before the next event is accepted, so a run exceeding a cap terminates
// — or degrades — within one event.
func (n *Network) governStep(total int64) error {
	g := n.cfg.gov
	if g.err == nil {
		if max := g.limit(governor.ResStepMessages); max > 0 && total > int64(max) {
			if g.trip(governor.ResStepMessages, int(total), "") == governor.PolicyShed {
				g.shedAll = true
			}
		}
	}
	if g.err == nil {
		if max := g.limit(governor.ResLiveVars); max > 0 && n.cfg.pool.Live() > max {
			if g.trip(governor.ResLiveVars, n.cfg.pool.Live(), "") == governor.PolicyShed {
				g.shedAll = true
			}
		}
	}
	if g.err != nil {
		if n.metrics != nil {
			n.syncMetrics()
		}
		return g.err
	}
	if g.shedAll && !n.allShed {
		n.shedAllSinks()
	}
	return nil
}

// shedAllSinks sheds every sink and quiesces the network: inboxes are
// dropped, the variable pool is reset, and subsequent steps keep only the
// depth bookkeeping. The parse still completes (Finish validates nesting),
// reporting whatever each sink had counted before the shed.
func (n *Network) shedAllSinks() {
	for _, out := range n.outs {
		out.shedSelf()
	}
	for i := range n.inboxes {
		n.inboxes[i].msgs = nil
	}
	n.store.reset()
	n.cfg.pool.Reset()
	n.allShed = true
}

// gaugeSyncStride is how often syncMetrics publishes gauge state, the
// stream-level counters (events, elements) and the batched per-transducer
// message counts, in steps. The transducers track their own maxima, so a
// periodic sync never misses a peak — counters and instantaneous gauges can
// lag by at most this many events, and the end-of-run sync makes them
// exact. Must be a power of two.
const gaugeSyncStride = 32

// propagate delivers the step's document event, and the activation messages
// it causes, to the part of the network they concern, in topological order. A
// node is visited when its inbox was written in this step, or when it is armed
// and the event in the register satisfies the wake condition it declared at
// its last visit; the check reads the dense wakes array only, not the node,
// its inbox or its transducer. Every other node would only have re-emitted the
// event, which needs no emitting, so it is skipped. A visited node gets the
// activations of its inbox — everything its writers emitted, all of them
// ahead of it in the order — then the event, and the inbox is cleared as soon
// as it has been read; writing to an inbox is what makes its node active, so
// no written inbox is left behind.
//
// It returns the deliveries made: one per visit for the document event plus
// one per activation read — the per-event work, which Lemma V.2 bounds by the
// network degree and which an idle sub-network does not contribute to. (Step
// adds the determinations the condition store applied.)
func (n *Network) propagate() int64 {
	r := &n.reg
	class, depth, sym := eventClass[r.ev.Kind&7], int32(r.depth), r.ev.Sym
	var visits, msgs int64
	hot, armed, wakes, cold := n.hot, n.armed, n.wakes, n.cold
	for w := range hot {
		// Writers precede their readers, so bits set during a visit are
		// always ahead of the cursor: re-reading the word picks them up.
		var behind uint64
		for {
			m := (hot[w] | armed[w]) &^ behind
			if m == 0 {
				break
			}
			b := bits.TrailingZeros64(m)
			bit := uint64(1) << b
			behind |= bit | (bit - 1)
			i := w<<6 | b
			node := &n.nodes[i]
			if hot[w]&bit == 0 {
				// The node's inbox was not written: it is visited for the
				// event alone, if it asked for it.
				if !wakes[i].wants(class, depth, sym) {
					continue
				}
			} else {
				hot[w] &^= bit
				in := &n.inboxes[i]
				for _, f := range in.msgs {
					node.t.feed(f)
				}
				in.read += int64(len(in.msgs))
				msgs += int64(len(in.msgs))
				in.msgs = in.msgs[:0]
			}
			visits++
			if cold != nil {
				cold[i].visits++
			}
			wk := node.t.doc(r, &node.out)
			wakes[i] = wk
			if wk.on != 0 {
				armed[w] |= bit
			} else {
				armed[w] &^= bit
			}
			if n.tracer != nil {
				n.tracer.Trace(obs.TraceEvent{Step: r.step, Node: node.t.name(), Kind: obs.KindDoc, Msg: r.ev.String(), TraceID: n.cfg.traceID})
			}
		}
	}
	n.visits += visits
	return visits + msgs
}

// syncMetrics publishes the per-transducer and sink-side state into the
// registry; called every gaugeSyncStride steps and after Finish, so
// snapshots taken from other goroutines see counters that are exact per
// event and gauges at most a few events stale.
func (n *Network) syncMetrics() {
	m := n.metrics
	if d := n.reg.step - n.lastStep; d != 0 {
		m.Events.Add(d)
		n.lastStep = n.reg.step
	}
	if d := n.elements - n.lastElements; d != 0 {
		m.Elements.Add(d)
		n.lastElements = n.elements
	}
	m.Depth.Set(int64(n.depth))
	m.Depth.NoteMax(int64(n.maxDepth))
	n.stepMsgs.FlushTo(&m.StepMessages)
	for i := range n.nodes {
		node, c := &n.nodes[i], &n.cold[i]
		ts := node.t.stackStats()
		tm := c.tm
		tm.Stack.Set(int64(ts.Cur))
		tm.Stack.NoteMax(int64(ts.MaxStack))
		tm.Formula.NoteMax(int64(ts.MaxFormula))
		// Deliveries by kind. The document event is delivered by a visit. An
		// activation is counted in where it is read and out once per inbox
		// the emitting port writes — a written inbox is always read in the
		// same step, so the two sums agree. A determination is counted out at
		// the node that originates it, or whose emission a determinant turned
		// into it, and in at every sink where its resolution touched a
		// candidate.
		var in, out [numKinds]int64
		in[obs.KindDoc] = c.visits
		in[obs.KindActivation] = n.inboxes[i].read
		out[obs.KindActivation] = node.out.sent * c.readers
		out[obs.KindDetermination] = node.out.dets
		if c.dets != nil {
			out[obs.KindDetermination] += c.dets.n
		}
		if ou, ok := node.t.(*outputT); ok {
			in[obs.KindDetermination] = ou.detsIn
		}
		for k := 0; k < numKinds; k++ {
			if d := in[k] - c.flushedIn[k]; d != 0 {
				tm.In[k].Add(d)
				c.flushedIn[k] = in[k]
			}
			if d := out[k] - c.flushedOut[k]; d != 0 {
				tm.Out[k].Add(d)
				c.flushedOut[k] = out[k]
			}
		}
	}
	m.LiveVars.Set(int64(n.cfg.pool.Live()))
	var cur OutputStats
	var queued, buffered int
	for _, out := range n.outs {
		cur.Matches += out.stats.Matches
		cur.Candidates += out.stats.Candidates
		cur.Dropped += out.stats.Dropped
		cur.MaxQueued += out.stats.MaxQueued
		cur.MaxBufferedEvs += out.stats.MaxBufferedEvs
		queued += len(out.queue)
		buffered += out.buffered
	}
	// The registry counters are cumulative across evaluations (a service
	// reuses one registry for many networks), so publish deltas.
	m.Matches.Add(cur.Matches - n.lastOut.Matches)
	m.Candidates.Add(cur.Candidates - n.lastOut.Candidates)
	m.Dropped.Add(cur.Dropped - n.lastOut.Dropped)
	n.lastOut = cur
	m.Queued.Set(int64(queued))
	m.Queued.NoteMax(int64(cur.MaxQueued))
	m.Buffered.Set(int64(buffered))
	m.Buffered.NoteMax(int64(cur.MaxBufferedEvs))
	if st := n.cfg.symtab; st != nil {
		hits, misses := st.Stats()
		m.SymtabSize.Set(int64(st.Len()))
		m.SymtabHits.Set(hits)
		m.SymtabMisses.Set(misses)
	}
}

// Finish validates end-of-stream invariants and flushes the sinks.
func (n *Network) Finish() error {
	if n.depth != 0 {
		return fmt.Errorf("spexnet: stream ended with %d unclosed element(s)", n.depth)
	}
	for _, out := range n.outs {
		if err := out.finish(); err != nil {
			return err
		}
	}
	if n.metrics != nil {
		n.syncMetrics()
	}
	n.finished = true
	return nil
}

// Clean reports whether the network evaluated a document to its end and
// nothing was cut short on the way: Finish accepted the stream, the governor
// tripped nowhere (so nothing is shed or degraded), and the network was not
// released early. Lemma V.2 bounds every stack by the depth of the open path,
// so such a network holds nothing of its document and Rewind hands it to the
// next one; a network that ended any other way is replaced by a freshly built
// one instead.
func (n *Network) Clean() bool {
	return n.finished && n.finalStats == nil && n.cfg.gov.outcome().Trips == 0
}

// Rewind returns the network to the state BuildSet left it in, ready for
// another document: the register and the counters, the active set, inboxes and
// ports, every transducer and sink, the condition store, the variable pool
// and the governor's run state start over. What was built stays — the wiring,
// the label tests compiled against the symbol table, the formulas of the
// unique table, the candidate records on the free list — and so does the
// storage stacks and inboxes grew to. An instrumented network publishes what
// it has not yet and starts its bookmarks over. A released network has lost
// its nodes and cannot be rewound.
func (n *Network) Rewind() {
	if n.finalStats != nil {
		panic("spexnet: Rewind of a released network")
	}
	if n.metrics != nil {
		n.syncMetrics()
		n.lastOut, n.lastStep, n.lastElements = OutputStats{}, 0, 0
		for i := range n.cold {
			c := &n.cold[i]
			c.visits, c.flushedIn, c.flushedOut = 0, [numKinds]int64{}, [numKinds]int64{}
		}
	}
	n.reg = docReg{}
	n.deliveries, n.visits, n.elements, n.depth, n.maxDepth = 0, 0, 0, 0, 0
	n.allShed, n.finished = false, false
	n.cfg.detSinks = 0
	clear(n.hot)
	clear(n.armed)
	clear(n.wakes)
	for i := range n.inboxes {
		in := &n.inboxes[i]
		clear(in.msgs)
		in.msgs, in.read = in.msgs[:0], 0
	}
	n.source.sent, n.source.dets = 0, 0
	for i := range n.nodes {
		node := &n.nodes[i]
		node.t.rewind()
		node.out.sent, node.out.dets = 0, 0
	}
	for _, d := range n.dets {
		d.n = 0
	}
	n.store.rewind()
	n.cfg.pool.Reset()
	n.cfg.gov.rewind()
}

// Release drops the network's evaluation state without requiring the stream
// to finish: transducer stacks, inboxes and queued candidates are
// unreferenced, and the condition pool returns its allocated variables. An
// early-exit caller (a filtering decision made mid-stream, or an answer
// determination) releases instead of feeding the rest of the document: what
// the governor polices goes back at that event, not at the next document. The
// final statistics are frozen first, so Stats, Matches and SinkStats keep
// answering after the release. The network accepts no further events
// afterwards and cannot be rewound; it is safe to call Release more than once.
func (n *Network) Release() {
	if n.finalStats == nil && n.outs != nil {
		// Freeze the sinks before finalStats: SinkStats short-circuits to
		// the frozen slice once finalStats is set.
		sinks := n.SinkStats()
		st := n.stats()
		n.finalStats = &st
		n.finalSinks = sinks
	}
	n.nodes, n.cold, n.inboxes, n.dests, n.dets = nil, nil, nil, nil, nil
	n.outs = nil
	n.store.reset()
	n.cfg.pool.Reset()
}

// Matches returns the number of answers reported so far, summed over all
// sinks.
func (n *Network) Matches() int64 {
	if n.finalStats != nil {
		return n.finalStats.Output.Matches
	}
	var total int64
	for _, out := range n.outs {
		total += out.stats.Matches
	}
	return total
}

// SinkStats returns per-sink output statistics, in the order the queries
// were given to BuildSet (a single-query network has one entry).
func (n *Network) SinkStats() []OutputStats {
	if n.finalStats != nil {
		return n.finalSinks
	}
	out := make([]OutputStats, len(n.outs))
	for i, o := range n.outs {
		out[i] = o.stats
	}
	return out
}

// SinkMatches returns the answers the i-th sink has reported: SinkStats'
// Matches without the copy.
func (n *Network) SinkMatches(i int) int64 {
	if n.finalStats != nil {
		return n.finalSinks[i].Matches
	}
	return n.outs[i].stats.Matches
}

// Stats returns the evaluation statistics so far. It reads the network's
// own (non-atomic) state, so it must be called from the evaluating
// goroutine; cross-goroutine observation goes through an obs.Metrics
// registry instead.
func (n *Network) Stats() Stats { return n.stats() }

func (n *Network) stats() Stats {
	if n.finalStats != nil {
		return *n.finalStats
	}
	s := Stats{
		Events:      n.reg.step,
		Elements:    n.elements,
		Deliveries:  n.deliveries,
		Visits:      n.visits,
		MaxDepth:    n.maxDepth,
		Transducers: len(n.nodes),
		Determined:  n.AnswerDetermined(),
	}
	for _, out := range n.outs {
		s.Output.Matches += out.stats.Matches
		s.Output.Candidates += out.stats.Candidates
		s.Output.Dropped += out.stats.Dropped
		s.Output.MaxQueued += out.stats.MaxQueued
		s.Output.MaxBufferedEvs += out.stats.MaxBufferedEvs
		s.Output.Degraded = s.Output.Degraded || out.stats.Degraded
		s.Output.Shed = s.Output.Shed || out.stats.Shed
		s.Output.Determined = s.Output.Determined || out.stats.Determined
	}
	s.Governor = n.cfg.gov.outcome()
	for i := range n.nodes {
		ts := n.nodes[i].t.stackStats()
		if ts.MaxStack > s.MaxStack {
			s.MaxStack = ts.MaxStack
		}
		if ts.MaxFormula > s.MaxFormula {
			s.MaxFormula = ts.MaxFormula
		}
	}
	return s
}

// TransducerStats returns per-transducer resource usage keyed by a
// "index:name" label, for the §V experiments and debugging.
func (n *Network) TransducerStats() map[string]StackStats {
	out := make(map[string]StackStats, len(n.nodes))
	for i := range n.nodes {
		out[fmt.Sprintf("%d:%s", i, n.nodes[i].t.name())] = n.nodes[i].t.stackStats()
	}
	return out
}
