package spexnet

import (
	"testing"

	"repro/internal/cond"
	"repro/internal/xmlstream"
)

// tapeItem is one message of a hand-written tape. The engine keeps the
// document event in a register and only its position on tapes; here a
// document message carries its event, so that input sequences read — and
// outputs render — in the paper's notation.
type tapeItem struct {
	Message
	ev xmlstream.Event
}

func (it tapeItem) String() string {
	if it.Kind == MsgDoc {
		return it.ev.String()
	}
	return it.Message.String()
}

// docFeeder plays the runner for one transducer under test: it maintains the
// document register across the document messages of a hand-written tape.
type docFeeder struct {
	reg   docReg
	depth int
}

// deliver hands one item to the transducer the way Network.Step and
// propagate would: a document message loads the register and calls doc, with
// the mark the transducer emits recorded as the event it stands for.
func (f *docFeeder) deliver(t transducer, input int, it tapeItem, out func(port int, it tapeItem)) {
	emit := func(port int, m Message) { out(port, tapeItem{Message: m, ev: f.reg.ev}) }
	if it.Kind != MsgDoc {
		t.feed(input, &it.Message, emit)
		return
	}
	r := &f.reg
	r.step++
	r.ev, r.depth = it.ev, f.depth
	switch it.ev.Kind {
	case xmlstream.StartElement:
		f.depth++
		r.depth = f.depth
		r.index++
	case xmlstream.EndElement:
		f.depth--
	}
	t.doc(r, emit)
}

// feedAll drives a transducer with a message sequence and collects its
// port-0 output (port 1 for the second return value, used by split).
func feedAll(t transducer, input int, items []tapeItem) (port0, port1 []tapeItem) {
	var f docFeeder
	for _, it := range items {
		f.deliver(t, input, it, func(port int, it tapeItem) {
			if port == 0 {
				port0 = append(port0, it)
			} else {
				port1 = append(port1, it)
			}
		})
	}
	return port0, port1
}

// msgs builds a tape from messages (Message) and document messages
// (tapeItem, from start/end/startDoc/endDoc/chars).
func msgs(items ...any) []tapeItem {
	out := make([]tapeItem, len(items))
	for i, it := range items {
		switch it := it.(type) {
		case tapeItem:
			out[i] = it
		case Message:
			out[i] = tapeItem{Message: it}
		}
	}
	return out
}

func docItem(ev xmlstream.Event) tapeItem { return tapeItem{Message: docMark, ev: ev} }

func start(name string) tapeItem { return docItem(xmlstream.Start(name)) }
func end(name string) tapeItem   { return docItem(xmlstream.End(name)) }
func startDoc() tapeItem         { return docItem(xmlstream.Event{Kind: xmlstream.StartDocument}) }
func endDoc() tapeItem           { return docItem(xmlstream.Event{Kind: xmlstream.EndDocument}) }
func chars(data string) tapeItem { return docItem(xmlstream.Chars(data)) }

func render(ms []tapeItem) string {
	out := ""
	for i, m := range ms {
		if i > 0 {
			out += " "
		}
		out += m.String()
	}
	return out
}

var testCfg = &netConfig{}

// TestChildTransducerDirect exercises CH(l) at the message level: Example
// III.1's T1 in isolation.
func TestChildTransducerDirect(t *testing.T) {
	ch := newChild("a", testCfg)
	out, _ := feedAll(ch, 0, msgs(
		actMsg(cond.True()), startDoc(),
		start("a"), // matched: child of the activated <$>
		start("a"), // not matched: grandchild
		end("a"),
		end("a"),
		start("b"), // wrong label
		end("b"),
		endDoc(),
	))
	want := "<$> [true] <a> <a> </a> </a> <b> </b> </$>"
	if render(out) != want {
		t.Fatalf("got  %s\nwant %s", render(out), want)
	}
	// Only <$> was armed: the three open levels need one sparse entry.
	if st := ch.stackStats(); st.MaxStack != 1 {
		t.Errorf("MaxStack: %d, want 1", st.MaxStack)
	}
}

// TestChildTransducerMergesActivations: two activations before one start
// merge by disjunction (Fig. 2's activated2 handling).
func TestChildTransducerMergesActivations(t *testing.T) {
	ch := newChild("a", testCfg)
	v1, v2 := cond.Var(1), cond.Var(2)
	out, _ := feedAll(ch, 0, msgs(
		actMsg(v1), actMsg(v2), start("x"),
		start("a"), end("a"),
		end("x"),
	))
	// The match formula is v1∨v2.
	found := false
	for _, m := range out {
		if m.Kind == MsgActivation {
			found = true
			if m.Formula.String() != "v1∨v2" {
				t.Fatalf("formula: %s", m.Formula)
			}
		}
	}
	if !found {
		t.Fatal("no activation emitted")
	}
}

// TestClosureTransducerChain checks the e-mark behaviour of Fig. 3
// transition 8: a non-matching element suspends the scope.
func TestClosureTransducerChain(t *testing.T) {
	cl := newClosure("a", testCfg)
	out, _ := feedAll(cl, 0, msgs(
		actMsg(cond.True()), start("r"),
		start("a"), // in scope: matched
		start("x"), // suspends
		start("a"), // NOT matched (below x)
		end("a"),
		end("x"),
		start("a"), // matched again (chain resumes below first a)
		end("a"),
		end("a"),
		end("r"),
	))
	var matches int
	for _, m := range out {
		if m.Kind == MsgActivation {
			matches++
		}
	}
	if matches != 2 {
		t.Fatalf("matched %d times, want 2:\n%s", matches, render(out))
	}
}

// TestVCTransducerLifecycle: variable creation, conjunction and scope-exit
// finalization with id recycling.
func TestVCTransducerLifecycle(t *testing.T) {
	pool := cond.NewPool()
	q := pool.DeclareQualifier(nil)
	vc := newVC(q, pool, testCfg)
	out, _ := feedAll(vc, 0, msgs(
		actMsg(cond.True()), start("a"),
		end("a"),
		actMsg(cond.True()), start("b"),
		end("b"),
	))
	// Finalization travels after the end message (see vcT.feed).
	want := "[v0] <a> </a> {v0,close} [v0] <b> </b> {v0,close}"
	if render(out) != want {
		t.Fatalf("got  %s\nwant %s", render(out), want)
	}
	// The id was recycled between the instances.
	if pool.Allocated() != 1 {
		t.Fatalf("allocated %d ids, want 1 (recycled)", pool.Allocated())
	}
}

// TestSplitDuplicates: SP forwards everything to both tapes (Fig. 8).
func TestSplitDuplicates(t *testing.T) {
	sp := newSplit()
	p0, p1 := feedAll(sp, 0, msgs(actMsg(cond.True()), start("a"), end("a")))
	if render(p0) != render(p1) || len(p0) != 3 {
		t.Fatalf("p0=%s p1=%s", render(p0), render(p1))
	}
}

// TestJoinANDGate: the join marks each document event once and forwards the
// non-document messages of both branches on their side of it (Fig. 9),
// deduplicating identical determination messages that arrived via both
// branches of a split — within one step only.
func TestJoinANDGate(t *testing.T) {
	var f docFeeder
	jo := newJoin(&f.reg)
	var out []tapeItem
	collect := func(_ int, it tapeItem) { out = append(out, it) }
	det := tapeItem{Message: Message{Kind: MsgDet, Var: 7, Final: true}}
	act := tapeItem{Message: actMsg(cond.Var(1))}
	// The runner's order: what precedes the event from both ports, the
	// event, what follows it from both ports. The left branch delivers an
	// activation and a trailing det, the right branch the same det.
	f.deliver(jo, 0, act, collect)
	f.deliver(jo, 0, start("a"), collect)
	f.deliver(jo, 0, det, collect)
	f.deliver(jo, 1, det, collect)
	want := "[v1] <a> {v7,close}"
	if render(out) != want {
		t.Fatalf("got  %s\nwant %s", render(out), want)
	}
	// The dedupe does not reach across steps: the same determination in the
	// next step is a new message.
	out = nil
	f.deliver(jo, 0, end("a"), collect)
	f.deliver(jo, 0, det, collect)
	f.deliver(jo, 1, det, collect)
	if render(out) != "</a> {v7,close}" {
		t.Fatalf("second step: %s", render(out))
	}
}

// TestUnionMergesPerDocMessage: UN merges the activations preceding one
// document message into their disjunction (Fig. 10).
func TestUnionMergesPerDocMessage(t *testing.T) {
	un := newUnion(testCfg)
	out, _ := feedAll(un, 0, msgs(
		actMsg(cond.Var(1)), actMsg(cond.Var(2)), start("a"),
		end("a"),
		actMsg(cond.Var(3)), start("b"),
	))
	want := "[v1∨v2] <a> </a> [v3] <b>"
	if render(out) != want {
		t.Fatalf("got  %s\nwant %s", render(out), want)
	}
}

// TestVFRestrictsFormulas: VF(q+) keeps only the qualifier's variables;
// VF(q-) drops exactly those.
func TestVFRestrictsFormulas(t *testing.T) {
	pool := cond.NewPool()
	q1 := pool.DeclareQualifier(nil)
	q2 := pool.DeclareQualifier(nil)
	v1 := pool.Fresh(q1)
	v2 := pool.Fresh(q2)
	f := cond.And(cond.Var(v1), cond.Var(v2))

	plus := newVF(q1, pool, true)
	out, _ := feedAll(plus, 0, msgs(actMsg(f)))
	if len(out) != 1 || out[0].Formula.String() != "v0" {
		t.Fatalf("VF(q+): %s", render(out))
	}

	minus := newVF(q1, pool, false)
	out, _ = feedAll(minus, 0, msgs(actMsg(f)))
	if len(out) != 1 || out[0].Formula.String() != "v1" {
		t.Fatalf("VF(q-): %s", render(out))
	}
}

// TestVDEmitsWitnesses: VD turns activations into determination messages,
// one per variable of its qualifier, consuming the activation.
func TestVDEmitsWitnesses(t *testing.T) {
	pool := cond.NewPool()
	q := pool.DeclareQualifier(nil)
	v1 := pool.Fresh(q)
	v2 := pool.Fresh(q)
	vd := newVD(q, pool, testCfg)
	out, _ := feedAll(vd, 0, msgs(
		actMsg(cond.Or(cond.Var(v1), cond.Var(v2))),
		start("x"),
	))
	want := "{v0,true} {v1,true} <x>"
	if render(out) != want {
		t.Fatalf("got  %s\nwant %s", render(out), want)
	}
}

// TestVDNestedWitness: with nested qualifiers, the witness carries the
// residual condition of the inner variables.
func TestVDNestedWitness(t *testing.T) {
	pool := cond.NewPool()
	inner := pool.DeclareQualifier(nil)
	outer := pool.DeclareQualifier([]cond.QualID{inner})
	vi := pool.Fresh(inner)
	vo := pool.Fresh(outer)
	vd := newVD(outer, pool, testCfg)
	out, _ := feedAll(vd, 0, msgs(actMsg(cond.And(cond.Var(vo), cond.Var(vi)))))
	if len(out) != 1 {
		t.Fatalf("got %s", render(out))
	}
	m := out[0]
	if m.Kind != MsgDet || m.Var != vo || m.Witness.String() != "v0" {
		t.Fatalf("got %s (witness %s)", m, m.Witness)
	}
}
