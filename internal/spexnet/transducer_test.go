package spexnet

import (
	"testing"

	"repro/internal/cond"
	"repro/internal/obs"
	"repro/internal/xmlstream"
)

// tapeItem is one message of a hand-written tape, or of a transducer's
// observed output, in the paper's three kinds. The engine keeps the document
// event in a register and determinations in the condition store; here each is
// an item of its own, so that input sequences read — and outputs render — in
// the paper's notation.
type tapeItem struct {
	kind obs.MsgKind
	f    *cond.Formula   // activation
	det  det             // determination (output only: originated by the transducer)
	ev   xmlstream.Event // document message
}

func (it tapeItem) String() string {
	switch it.kind {
	case obs.KindDoc:
		return it.ev.String()
	case obs.KindActivation:
		return "[" + it.f.String() + "]"
	default:
		return it.det.String()
	}
}

// docFeeder plays the runner for one transducer under test: it maintains the
// document register across the document messages of a hand-written tape and
// observes the condition store the transducer originates determinations into.
type docFeeder struct {
	reg   docReg
	depth int
}

// deliver hands one item to the transducer the way Network.Step and
// propagate would. An activation is fed. A document message loads the
// register and calls doc; the output records what the transducer emitted
// ahead of the event, the event, and then the determinations it queued behind
// the event, which the store applies when the (one-node) sweep has drained. A
// determination originated ahead of the event is recorded where it takes
// effect: at once.
func (f *docFeeder) deliver(t transducer, input int, it tapeItem, out func(port int, it tapeItem)) {
	emit := func(port int, f *cond.Formula) { out(port, tapeItem{kind: obs.KindActivation, f: f}) }
	var store *condStore
	if o, ok := t.(interface{ origin() *detOrigin }); ok {
		store = o.origin().store
		store.trace = func(_ string, d det) { out(0, tapeItem{kind: obs.KindDetermination, det: d}) }
	}
	if it.kind != obs.KindDoc {
		t.feed(input, it.f, emit)
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
	out(0, it)
	if p, ok := t.(interface{ ports() int }); ok && p.ports() > 1 {
		out(1, it)
	}
	if store != nil {
		store.drain()
	}
}

// ports lets the feeder show the document event on both tapes of a split.
func (t *splitT) ports() int { return 2 }

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

// msgs builds a tape from tapeItems (actMsg, start/end/startDoc/endDoc/chars).
func msgs(items ...tapeItem) []tapeItem { return items }

func actMsg(f *cond.Formula) tapeItem { return tapeItem{kind: obs.KindActivation, f: f} }

func docItem(ev xmlstream.Event) tapeItem { return tapeItem{kind: obs.KindDoc, ev: ev} }

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

// testCfg serves the transducers that need no variables of their own; tests
// declaring qualifiers build a config around their own pool (cfgFor).
var testCfg = cfgFor(cond.NewPool())

func cfgFor(pool *cond.Pool) *netConfig { return &netConfig{pool: pool} }

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
	v1, v2 := testCfg.pool.Var(1), testCfg.pool.Var(2)
	out, _ := feedAll(ch, 0, msgs(
		actMsg(v1), actMsg(v2), start("x"),
		start("a"), end("a"),
		end("x"),
	))
	// The match formula is v1∨v2.
	found := false
	for _, m := range out {
		if m.kind == obs.KindActivation {
			found = true
			if m.f.String() != "v1∨v2" {
				t.Fatalf("formula: %s", m.f)
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
		if m.kind == obs.KindActivation {
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
	vc := newVC(q, false, cfgFor(pool), newCondStore(cfgFor(pool)))
	out, _ := feedAll(vc, 0, msgs(
		actMsg(cond.True()), start("a"),
		end("a"),
		actMsg(cond.True()), start("b"),
		end("b"),
	))
	// The finalization follows the end message (see vcT.doc).
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

// TestJoinANDGate: the join gates nothing any more — both branches read the
// step's one document event from the register — and merges the activations of
// both branches ahead of it, left branch first (Fig. 9). Determinations do not
// reach it: they go to the condition store.
func TestJoinANDGate(t *testing.T) {
	var f docFeeder
	jo := newJoin()
	var out []tapeItem
	collect := func(_ int, it tapeItem) { out = append(out, it) }
	// The runner's order: the activations of both ports, then the event.
	f.deliver(jo, 0, actMsg(testCfg.pool.Var(1)), collect)
	f.deliver(jo, 1, actMsg(testCfg.pool.Var(2)), collect)
	f.deliver(jo, 0, start("a"), collect)
	want := "[v1] [v2] <a>"
	if render(out) != want {
		t.Fatalf("got  %s\nwant %s", render(out), want)
	}
	// Nothing is buffered across steps.
	out = nil
	f.deliver(jo, 0, end("a"), collect)
	if render(out) != "</a>" {
		t.Fatalf("second step: %s", render(out))
	}
}

// TestUnionMergesPerDocMessage: UN merges the activations preceding one
// document message into their disjunction (Fig. 10).
func TestUnionMergesPerDocMessage(t *testing.T) {
	un := newUnion(testCfg)
	out, _ := feedAll(un, 0, msgs(
		actMsg(testCfg.pool.Var(1)), actMsg(testCfg.pool.Var(2)), start("a"),
		end("a"),
		actMsg(testCfg.pool.Var(3)), start("b"),
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
	f := pool.And(pool.Var(v1), pool.Var(v2))

	plus := newVF(q1, pool, true)
	out, _ := feedAll(plus, 0, msgs(actMsg(f)))
	if len(out) != 1 || out[0].f.String() != "v0" {
		t.Fatalf("VF(q+): %s", render(out))
	}

	minus := newVF(q1, pool, false)
	out, _ = feedAll(minus, 0, msgs(actMsg(f)))
	if len(out) != 1 || out[0].f.String() != "v1" {
		t.Fatalf("VF(q-): %s", render(out))
	}
}

// TestVDEmitsWitnesses: VD turns activations into determinations, one per
// variable of its qualifier, consuming the activation.
func TestVDEmitsWitnesses(t *testing.T) {
	pool := cond.NewPool()
	q := pool.DeclareQualifier(nil)
	v1 := pool.Fresh(q)
	v2 := pool.Fresh(q)
	vd := newVD(q, cfgFor(pool), newCondStore(cfgFor(pool)))
	out, _ := feedAll(vd, 0, msgs(
		actMsg(pool.Or(pool.Var(v1), pool.Var(v2))),
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
	vd := newVD(outer, cfgFor(pool), newCondStore(cfgFor(pool)))
	out, _ := feedAll(vd, 0, msgs(actMsg(pool.And(pool.Var(vo), pool.Var(vi)))))
	if len(out) != 1 {
		t.Fatalf("got %s", render(out))
	}
	m := out[0]
	if m.kind != obs.KindDetermination || m.det.v != vo || m.det.witness.String() != "v0" {
		t.Fatalf("got %s", m)
	}
}
