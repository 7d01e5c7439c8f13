package spexnet

import (
	"fmt"
	"time"

	"repro/internal/cond"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/xmlstream"
)

// ResultMode selects what the output transducer reports for each query
// answer.
type ResultMode uint8

const (
	// ModeCount only counts answers; nothing is buffered beyond
	// undetermined candidates' formulas. This is the cheapest mode and
	// the one the large-stream benchmarks use.
	ModeCount ResultMode = iota
	// ModeNodes reports each answer's document-order index and label, in
	// document order.
	ModeNodes
	// ModeSerialize reports each answer with its full subtree content,
	// in document order, buffering a candidate's content only while an
	// earlier candidate is undecided or unfinished (§III.8: the output
	// transducer "buffers messages only if their membership in the
	// result can not be decided based on the stream fragment already
	// processed" — or, for content, while document order demands it).
	ModeSerialize
	// ModeStream delivers answer content through a StreamSink event by
	// event: the head answer, once accepted, streams directly with no
	// buffering at all — results are "output on the fly" (abstract).
	ModeStream
)

// content reports whether answers carry their subtree, so that the sink must
// see every document event inside an open candidate.
func (m ResultMode) content() bool { return m == ModeSerialize || m == ModeStream }

// Result is one query answer.
type Result struct {
	// Index is the document-order number of the answer node: the
	// document root <$> has index 0, elements are numbered from 1 in
	// order of their start messages.
	Index int64
	// Name is the element label ("$" for the document root).
	Name string
	// Events holds the answer's subtree (ModeSerialize only). It is the
	// candidate record's own buffer, valid during the Sink call only: the
	// record, buffer included, is reused for a later candidate.
	Events []xmlstream.Event
}

// Sink receives query answers in document order. What a Result points to is
// good for the duration of the call.
type Sink func(Result)

// OutputStats reports the resources the output transducer used: the
// §III.8/Lemma V.2(5) quantities.
type OutputStats struct {
	Matches        int64 // answers reported
	Candidates     int64 // candidates created (answers + dropped)
	Dropped        int64 // candidates whose condition became false
	MaxQueued      int   // max simultaneously queued candidates
	MaxBufferedEvs int   // max simultaneously buffered content events
	// Degraded is set when the resource governor switched this sink to
	// count-only mode (PolicyDegrade): Matches stays exact, but content and
	// node reporting stopped at the trip point.
	Degraded bool
	// Shed is set when the resource governor dropped this sink
	// (PolicyShed): the counts are frozen at the trip point.
	Shed bool
	// Determined is set when the sink's answer became fixed before the end
	// of the stream — the answer limit was reached — and the sink released
	// its state (earliest query answering: nothing in the stream's suffix
	// can change the reported answers).
	Determined bool
}

type candState uint8

const (
	candPending candState = iota
	candAccepted
	candRejected
)

// candidate is the record of one potential answer. Records are recycled
// (condStore.free): a pointer to one is good only while it is queued or open.
type candidate struct {
	index   int64
	name    string
	formula *cond.Formula
	state   candState
	// content buffers the candidate's subtree (content modes) in storage the
	// record owns and keeps from one candidate to the next: the events the
	// sink is shown are the scanner's, dead by the next step.
	content    xmlstream.Tape
	startDepth int
	// queued: the candidate is in the sink's document-order queue. A pending
	// one that is not — the sink degraded to count-only mode — is tracked
	// through the condition store alone and counted when its formula determines.
	queued bool
	// open: the candidate is on the openStack, collecting content.
	open bool
	// streaming marks the head candidate whose content goes straight to
	// the StreamSink (ModeStream).
	streaming bool
	gen       uint32 // times the record was recycled; see waitRef
	// born is the sink's event count when the candidate was created — the
	// reference point of the decision-latency and candidate-lifetime
	// histograms (both measured in stream events, §V's unit).
	born int64
	// sink is the output transducer holding the candidate: the condition
	// store reaches it from the variables the formula mentions.
	sink *outputT
}

// newCandidate takes a record off the network's free list, or allocates one.
func (t *outputT) newCandidate(index int64, name string, f *cond.Formula) *candidate {
	s := t.store
	var c *candidate
	if n := len(s.free); n > 0 {
		c, s.free = s.free[n-1], s.free[:n-1]
	} else {
		c = &candidate{}
	}
	*c = candidate{index: index, name: name, formula: f, sink: t, born: t.reg.step, gen: c.gen, content: c.content}
	return c
}

// maxKeptContent is the storage a record's content buffer may keep while the
// record waits on the free list. One large answer must not pin its size for
// the rest of the stream; typical answers are far smaller and reuse theirs.
const maxKeptContent = 16 << 10

// recycle returns c's record to the free list once neither the queue nor the
// openStack holds it (a rejected head leaves the queue before its end tag; an
// answer may close before the queue reaches it); the generation voids what the
// store's waiting lists still hold of it. The records of the wholesale drops —
// degrade, shedSelf, determine — keep their flags and go to the collector.
func (t *outputT) recycle(c *candidate) {
	if c.queued || c.open {
		return
	}
	c.gen++
	if c.content.Size() > maxKeptContent {
		c.content = xmlstream.Tape{}
	} else {
		c.content.Reset()
	}
	t.store.free = append(t.store.free, c)
}

// outputT is the output transducer OU of §III.8. It is the network's sink:
// the one component needing the power of a 2-DPDT (random access to
// candidates and formulas).
type outputT struct {
	mode  ResultMode
	sink  Sink
	ssink StreamSink
	cfg   *netConfig

	pending *cond.Formula
	// reg is the network's register; between document events the sink reads
	// its step counter, the clock of the candidate-lifecycle histograms.
	reg *docReg

	// attr, when set, makes the sink select the named attribute of each
	// match instead of the match itself (the terminal step .@attr).
	// Attribute nodes have no representation in the document stream, so the
	// sink synthesizes one — the balanced triple <@attr> value </@attr> —
	// as a sibling just before its owner, with a document-order index of its
	// own. The attribute step is restricted to the end of a query, so only
	// the sink could ever read such a node; synthesizing it here, instead of
	// in a transducer in front of the sink, keeps events off the tapes.
	attr, attrLabel string
	// attrNodes counts the attribute nodes synthesized so far: this sink
	// numbers every later node that much higher than the register does.
	attrNodes int64

	queue []*candidate // document order; undecided or not yet emitted
	// openStack holds the candidates still collecting content, innermost
	// last (content modes only): each is tagged with the depth of its node,
	// and while it is non-empty the sink is armed for every document event.
	openStack []*candidate

	// store is the network's condition store; undecided candidates register
	// with it under the variables of their formulas. idx is this sink's index
	// there (the order the queries were given in).
	store *condStore
	idx   int
	// detsIn counts the resolutions that touched one of the sink's candidates
	// (its in_det), seenResolution the last one counted.
	detsIn         int64
	seenResolution int64

	stats    OutputStats
	buffered int
	st       StackStats
	err      error

	// om receives the candidate-lifecycle histograms (netConfig.sinkMetrics);
	// nil keeps every recording point a single pointer test.
	om *obs.Metrics

	// sub names the query this sink serves, for governor attribution.
	sub string
	// degraded: the governor switched the sink to count-only mode; the
	// queue and content buffers are gone, undecided candidates are tracked
	// through the condition store only and counted on determination.
	degraded bool
	// pendingN counts undecided candidates while degraded (the degraded
	// replacement for len(queue), governed by the same cap).
	pendingN int
	// shed: the governor dropped the sink; feed is a no-op from then on.
	shed bool

	// limit, when positive, is the sink's answer budget: the query asks for
	// the first limit answers in document order. Reaching it determines the
	// sink — no suffix of the stream can change what was reported — so all
	// candidate state is released and feed becomes a no-op.
	limit int64
	// determined: the limit was reached; the answer is fixed.
	determined bool
}

func newOutput(mode ResultMode, sink Sink, cfg *netConfig, reg *docReg) *outputT {
	return &outputT{mode: mode, sink: sink, cfg: cfg, reg: reg, om: cfg.sinkMetrics}
}

// observeDecision records the decision latency of a candidate born at the
// given step: the events between creation and its condition resolving to
// true or false.
func (t *outputT) observeDecision(born int64) {
	if t.om != nil {
		t.om.DecisionLatency.Observe(t.reg.step - born)
	}
}

// observeLifetime records how long the candidate lived in the sink — from
// creation to emission or discard, i.e. how long its buffered content aged.
func (t *outputT) observeLifetime(born int64) {
	if t.om != nil {
		t.om.CandidateLifetime.Observe(t.reg.step - born)
	}
}

// observeEmit records the end-to-end stream latency of an answer emission:
// wall-clock nanoseconds since the input reader last read, when a counting
// reader stamps read times into the registry.
func (t *outputT) observeEmit() {
	if t.om == nil {
		return
	}
	if last := t.om.LastReadNs.Load(); last > 0 {
		t.om.StreamLatencyNs.Observe(time.Now().UnixNano() - last)
	}
}

func (t *outputT) name() string { return "OU" }

func (t *outputT) stackStats() StackStats {
	s := t.st
	s.Cur = len(t.queue)
	return s
}

// rewind puts the records the sink still holds back on the free list and
// zeroes its run state; the queue and the openStack keep their storage.
func (t *outputT) rewind() {
	for _, c := range t.queue {
		c.queued, c.open = false, false
		t.recycle(c)
	}
	for _, c := range t.openStack {
		if c.open { // not queued any more: a rejected head leaves before its end tag
			c.open = false
			t.recycle(c)
		}
	}
	clear(t.queue)
	clear(t.openStack)
	t.queue, t.openStack = t.queue[:0], t.openStack[:0]
	t.pending, t.attrNodes, t.detsIn, t.seenResolution = nil, 0, 0, 0
	t.stats, t.buffered, t.st, t.pendingN = OutputStats{}, 0, StackStats{}, 0
	t.degraded, t.shed, t.determined = false, false, false
}

func (t *outputT) feed(f *cond.Formula) {
	if t.shed || t.determined {
		return
	}
	t.pending = t.cfg.or(t.pending, f)
	t.st.noteFormula(t.pending)
}

// doc: the sink needs every event while a candidate collects content, and
// otherwise only the ones an activation comes with.
func (t *outputT) doc(r *docReg, _ *port) wake {
	if t.shed || t.determined {
		return wake{}
	}
	index := r.index + t.attrNodes
	if t.attr != "" && isStart(r.ev.Kind) && t.pending != nil {
		// The match itself is not an answer; its attribute, if present, is.
		f := t.pending
		t.pending = nil
		if v, ok := r.ev.Attr(t.attr); ok {
			t.selectAttr(f, v, r.depth, index)
			if t.shed || t.determined {
				return wake{}
			}
			index++
		}
	}
	t.handleDoc(&r.ev, r.depth, index)
	t.flushQueue()
	return wakeIf(t.pending != nil || len(t.openStack) > 0)
}

// selectAttr passes the synthesized attribute node <@attr> value </@attr>
// through the sink as a candidate with formula f, exactly as if the three
// messages had arrived on the tape ahead of the owner's start message.
func (t *outputT) selectAttr(f *cond.Formula, value string, depth int, index int64) {
	t.attrNodes++
	evs := [3]xmlstream.Event{xmlstream.Start(t.attrLabel), xmlstream.Chars(value), xmlstream.End(t.attrLabel)}
	t.pending = f
	for i := range evs {
		if i == 1 && value == "" {
			continue
		}
		t.handleDoc(&evs[i], depth, index)
		t.flushQueue()
		if t.shed || t.determined {
			return
		}
	}
}

// handleDoc processes a document event: ev opens or closes the node at the
// given depth (or is character data), and a node it opens has the given
// document-order index.
func (t *outputT) handleDoc(ev *xmlstream.Event, depth int, index int64) {
	switch {
	case isStart(ev.Kind):
		if t.pending != nil {
			f := t.pending
			t.pending = nil
			// Decided at birth: an unconditional answer with nothing queued
			// ahead of it is countable — and, in ModeNodes, deliverable —
			// immediately: no candidate record, no queue traffic. With the
			// symbol pipeline this makes the qualifier-free loop
			// allocation-free; the interning ablation (noInterning) keeps
			// the seed's allocating path as its baseline.
			if !t.mode.content() && !t.cfg.noInterning && len(t.queue) == 0 && f.IsTrue() {
				t.stats.Candidates++
				t.stats.Matches++
				// Decided and emitted at birth: both latencies are zero.
				t.observeDecision(t.reg.step)
				t.observeLifetime(t.reg.step)
				if t.mode == ModeNodes && t.sink != nil && !t.degraded {
					t.observeEmit()
					t.sink(Result{Index: index, Name: nodeName(ev)})
				}
				if t.limitReached() {
					t.determine()
					return
				}
			} else {
				t.openCandidate(index, ev, depth, f)
				if t.determined {
					return
				}
			}
		}
		t.appendToOpen(ev)
	case isEnd(ev.Kind):
		t.pending = nil
		t.appendToOpen(ev)
		// Close the candidate rooted at the node this event closes.
		if n := len(t.openStack); n > 0 && t.openStack[n-1].startDepth == depth {
			c := t.openStack[n-1]
			t.openStack = t.openStack[:n-1]
			c.open = false
			t.recycle(c)
		}
	default: // text
		t.appendToOpen(ev)
	}
}

// nodeName is the label an answer rooted at the start event ev reports.
func nodeName(ev *xmlstream.Event) string {
	if ev.Kind == xmlstream.StartDocument {
		return "$"
	}
	return ev.Name
}

// openCandidate creates a candidate for the node whose start event is ev.
func (t *outputT) openCandidate(index int64, ev *xmlstream.Event, depth int, f *cond.Formula) {
	f = t.store.substitute(f)
	if t.cfg.gov != nil {
		t.cfg.checkFormula(f)
	}
	t.stats.Candidates++
	if f.IsFalse() {
		// Rejected at birth: counted, never recorded.
		t.stats.Dropped++
		t.observeDecision(t.reg.step)
		t.observeLifetime(t.reg.step)
		return
	}
	if t.degraded {
		t.openDegraded(index, nodeName(ev), f)
		return
	}
	c := t.newCandidate(index, nodeName(ev), f)
	c.startDepth, c.queued = depth, true
	if f.IsTrue() {
		c.state = candAccepted
		t.observeDecision(c.born)
	} else {
		t.store.register(c, f)
	}
	t.queue = append(t.queue, c)
	if len(t.queue) > t.stats.MaxQueued {
		t.stats.MaxQueued = len(t.queue)
	}
	if t.mode.content() {
		c.open = true
		t.openStack = append(t.openStack, c)
	}
	t.st.noteStack(len(t.queue))
	t.checkCandidates()
}

// openDegraded is openCandidate in count-only mode: an accepted candidate is
// counted on the spot, an undecided one tracked through the condition store
// only (no queue, no content) and counted when its formula determines.
func (t *outputT) openDegraded(index int64, name string, f *cond.Formula) {
	if f.IsTrue() {
		t.stats.Matches++
		t.observeDecision(t.reg.step)
		t.observeLifetime(t.reg.step)
		if t.limitReached() {
			t.determine()
		}
		return
	}
	t.store.register(t.newCandidate(index, name, f), f)
	t.pendingN++
	if t.pendingN > t.stats.MaxQueued {
		t.stats.MaxQueued = t.pendingN
	}
	// A count-only candidate is just a formula and a store entry — no
	// queue slot, no content buffer — so the degraded sink tolerates a
	// much larger pending population before the hard backstop fails the
	// run (degradation shrank each candidate, not the count of them).
	if g := t.cfg.gov; g.active() {
		if max := g.limit(governor.ResCandidates); max > 0 && t.pendingN > max*degradedCandidateSlack {
			g.tripFail(governor.ResCandidates, t.pendingN, t.sub)
		}
	}
}

// degradedCandidateSlack is how many times MaxCandidates a degraded sink's
// pending (count-only) population may reach before the run fails anyway:
// the backstop that keeps PolicyDegrade a bounded-memory guarantee rather
// than an unbounded escape hatch.
const degradedCandidateSlack = 64

// checkCandidates applies the candidate-population cap after a queue append.
func (t *outputT) checkCandidates() {
	g := t.cfg.gov
	if !g.active() {
		return
	}
	if max := g.limit(governor.ResCandidates); max > 0 && len(t.queue) > max {
		switch g.trip(governor.ResCandidates, len(t.queue), t.sub) {
		case governor.PolicyDegrade:
			t.degrade()
		case governor.PolicyShed:
			t.shedSelf()
		}
	}
}

// degrade switches the sink to count-only mode (PolicyDegrade): buffered
// answer content is released, the document-order queue is eliminated, and
// from then on only match counts are maintained. The count stays exact —
// accepted candidates are counted immediately, pending ones when their
// formula determines — but node and content reporting stop at the trip
// point; a ModeStream answer that was already streaming is closed early.
func (t *outputT) degrade() {
	if t.degraded || t.shed {
		return
	}
	t.degraded = true
	t.stats.Degraded = true
	for _, c := range t.queue {
		switch c.state {
		case candAccepted:
			if c.streaming {
				t.ssink.ResultEnd(c.index)
			}
			t.stats.Matches++
			t.observeLifetime(c.born)
			if t.limitReached() {
				t.determine()
				return
			}
		case candPending:
			c.queued, c.open = false, false
			t.pendingN++
		}
		// Rejected candidates were counted as Dropped when they rejected.
		c.content = xmlstream.Tape{}
	}
	t.queue = nil
	t.openStack = nil
	t.buffered = 0
}

// shedSelf drops the subscription (PolicyShed): every piece of state is
// released and the sink ignores the rest of the stream. Counts freeze at
// the trip point; an in-flight streaming answer is closed so the consumer's
// frame terminates. Candidates still registered with the condition store are
// skipped there from now on and leave with their variables.
func (t *outputT) shedSelf() {
	if t.shed {
		return
	}
	if len(t.queue) > 0 && t.queue[0].streaming {
		t.ssink.ResultEnd(t.queue[0].index)
	}
	t.shed = true
	t.stats.Shed = true
	t.queue = nil
	t.openStack = nil
	t.pending = nil
	t.buffered = 0
	t.pendingN = 0
}

// appendToOpen adds a content event to every open, non-rejected candidate
// (ModeSerialize and ModeStream), each copying it into its own buffer. The
// streaming head candidate forwards the event instead of buffering it.
func (t *outputT) appendToOpen(ev *xmlstream.Event) {
	if len(t.openStack) == 0 {
		return
	}
	for _, c := range t.openStack {
		if c.state == candRejected {
			continue
		}
		if c.streaming {
			t.ssink.ResultEvent(*ev)
			continue
		}
		c.content.Append(ev)
		t.buffered++
	}
	if t.buffered > t.stats.MaxBufferedEvs {
		t.stats.MaxBufferedEvs = t.buffered
	}
	if g := t.cfg.gov; g.active() {
		if max := g.limit(governor.ResBuffered); max > 0 && t.buffered > max {
			switch g.trip(governor.ResBuffered, t.buffered, t.sub) {
			case governor.PolicyDegrade:
				t.degrade()
			case governor.PolicyShed:
				t.shedSelf()
			}
		}
	}
}

// assign gives the undecided candidate c the formula f, which a resolution
// made of its own — the condition store's resolve calls it for every candidate
// of this sink the resolution changes — and moves c to accepted or rejected
// when that decides it. A count-only candidate is counted here, which may
// exhaust the answer limit and determine the sink in the middle of a
// resolution; the store skips the sink's remaining candidates from then on.
func (t *outputT) assign(c *candidate, f *cond.Formula) {
	c.formula = f
	t.st.noteFormula(f)
	if t.cfg.gov != nil {
		t.cfg.checkFormula(f)
	}
	switch {
	case f.IsTrue():
		c.state = candAccepted
		if !c.queued {
			t.stats.Matches++
		}
	case f.IsFalse():
		c.state = candRejected
		t.stats.Dropped++
		t.releaseContent(c)
	default:
		return
	}
	t.observeDecision(c.born)
	if !c.queued {
		t.pendingN--
		t.observeLifetime(c.born)
		t.recycle(c)
		if t.limitReached() {
			t.determine()
		}
	}
}

// releaseContent empties a candidate's buffer — rejected, or replayed to the
// stream sink — at once; its storage stays with the record.
func (t *outputT) releaseContent(c *candidate) {
	t.buffered -= c.content.Len()
	c.content.Reset()
}

// flushQueue emits decided candidates from the front of the document-order
// queue. What it pops is closed up in place, so the queue keeps its storage
// instead of creeping forward through it and reallocating.
func (t *outputT) flushQueue() {
	done := 0
loop:
	for done < len(t.queue) {
		c := t.queue[done]
		switch c.state {
		case candRejected: // its content went when it was rejected
		case candAccepted:
			if t.mode == ModeStream && !c.streaming {
				// Promote to streaming: replay what was buffered while the
				// candidate waited, then forward live.
				t.ssink.ResultStart(c.index, c.name)
				for _, ev := range c.content.Events() {
					t.ssink.ResultEvent(ev)
				}
				t.releaseContent(c)
				c.streaming = true
			}
			if c.open {
				break loop // content still arriving (streamed directly, if streaming)
			}
			t.emit(c)
			// The k-th answer in document order has been fully delivered
			// (for ModeStream, its ResultEnd just went out): the answer is
			// fixed no matter what the rest of the stream holds.
			if t.limitReached() {
				t.observeLifetime(c.born)
				t.determine()
				return
			}
		default:
			break loop
		}
		t.observeLifetime(c.born)
		c.queued = false
		t.recycle(c)
		done++
	}
	if done > 0 {
		n := copy(t.queue, t.queue[done:])
		clear(t.queue[n:])
		t.queue = t.queue[:n]
	}
}

func (t *outputT) emit(c *candidate) {
	if t.mode == ModeStream {
		t.ssink.ResultEnd(c.index)
	}
	t.stats.Matches++
	t.observeEmit()
	if t.sink == nil || (t.mode != ModeNodes && t.mode != ModeSerialize) {
		return
	}
	r := Result{Index: c.index, Name: c.name}
	if t.mode == ModeSerialize {
		r.Events = c.content.Events()
		t.buffered -= c.content.Len()
	}
	t.sink(r)
}

// limitReached reports whether the sink's answer budget is exhausted.
func (t *outputT) limitReached() bool {
	return t.limit > 0 && t.stats.Matches >= t.limit
}

// determine marks the sink's answer as fixed — the first limit answers have
// been delivered in document order, and nothing in the stream's suffix can
// add to or retract them — and releases every piece of candidate state:
// queued candidates and buffered content go at once, so the memory the
// governor polices is returned at the determination event rather than at end
// of stream (the condition store skips what the sink still has registered).
// From here on feed is a no-op; the network notices via the shared config's
// determined-sink count and can disconnect the stream.
func (t *outputT) determine() {
	if t.determined || t.shed {
		return
	}
	t.determined = true
	t.stats.Determined = true
	t.queue = nil
	t.openStack = nil
	t.pending = nil
	t.buffered = 0
	t.pendingN = 0
	t.cfg.detSinks++
	if t.om != nil {
		t.om.EarlyTerm.Add(1)
	}
}

// finish is called after the end-document step; it verifies that every
// candidate was decided (the variable-creators finalize all instances by
// then) and reports leftover state as an internal error.
func (t *outputT) finish() error {
	if t.shed {
		// A shed sink dropped its state by design; nothing to validate.
		return t.err
	}
	if t.determined {
		// The answer was fixed mid-stream and the state already released.
		return t.err
	}
	t.flushQueue()
	if len(t.queue) != 0 {
		c := t.queue[0]
		return fmt.Errorf("spexnet: internal: %d undecided candidate(s) at end of stream; first has index %d, formula %s",
			len(t.queue), c.index, c.formula)
	}
	if t.pendingN != 0 {
		return fmt.Errorf("spexnet: internal: %d undecided count-only candidate(s) at end of stream", t.pendingN)
	}
	return t.err
}
