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
// document register across the document messages of a hand-written tape,
// catches what the transducer emits in the one inbox of a scratch network, and
// observes the condition store the transducer originates determinations into.
type docFeeder struct {
	reg   docReg
	depth int
	net   *Network
}

// out returns the port the transducer under test emits on: its one
// destination is inbox 0 of the scratch network.
func (f *docFeeder) out() *port {
	if f.net == nil {
		f.net = &Network{inboxes: make([]inbox, 1), hot: make([]uint64, 1), dests: []int32{0}}
		f.net.source = port{net: f.net, hi: 1, node: -1}
	}
	return &f.net.source
}

// deliver hands one item to the transducer the way Network.Step and
// propagate would. An activation is fed. A document message loads the
// register and calls doc; the output records what the transducer emitted
// ahead of the event, the event, and then the determinations it queued behind
// the event, which the store applies when the (one-node) sweep has drained. A
// determination originated ahead of the event is recorded where it takes
// effect: at once.
func (f *docFeeder) deliver(t transducer, it tapeItem, out func(tapeItem)) {
	port := f.out()
	emitted := func() {
		in := &f.net.inboxes[0]
		for _, a := range in.msgs {
			out(tapeItem{kind: obs.KindActivation, f: a})
		}
		in.msgs = in.msgs[:0]
	}
	var store *condStore
	if o, ok := t.(interface{ origin() *detOrigin }); ok {
		store = o.origin().store
		store.trace = func(_ string, d det) {
			emitted()
			out(tapeItem{kind: obs.KindDetermination, det: d})
		}
	}
	if it.kind != obs.KindDoc {
		t.feed(it.f)
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
	t.doc(r, port)
	emitted()
	out(it)
	if store != nil {
		store.drain()
	}
}

// feedAll drives a transducer with a message sequence and collects its
// output.
func feedAll(t transducer, items []tapeItem) (out []tapeItem) {
	var f docFeeder
	for _, it := range items {
		f.deliver(t, it, func(it tapeItem) { out = append(out, it) })
	}
	return out
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
	out := feedAll(ch, msgs(
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
	out := feedAll(ch, msgs(
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
	out := feedAll(cl, msgs(
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
	out := feedAll(vc, msgs(
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

// wiringUnderTest builds, with the builder's own primitives, the network
// source → SP → (CH(a) | CH(b)) → JO → CH(c) and returns it wired.
func wiringUnderTest() *Network {
	n := &Network{}
	n.source = port{net: n, node: -1}
	b := &builder{net: n}
	left, right := b.split(b.newWire(-1))
	a := b.addNode(newChild("a", testCfg), left)
	bb := b.addNode(newChild("b", testCfg), right)
	b.addNode(newChild("c", testCfg), b.join(a, bb))
	b.finish(nil)
	return n
}

// TestSplitDuplicates: SP forwards everything to both branches (Fig. 8). It
// is wiring: the readers of the two branches are both destinations of the
// split tape's writer, and one emission reaches — and activates — both.
func TestSplitDuplicates(t *testing.T) {
	n := wiringUnderTest()
	if n.Degree() != 3 {
		t.Fatalf("degree %d, want 3: SP and JO are not nodes", n.Degree())
	}
	clear(n.hot)
	n.source.emit(cond.True())
	for i := 0; i < 2; i++ {
		if got := render(actItems(n.inboxes[i].msgs)); got != "[true]" {
			t.Errorf("branch %d received %q, want [true]", i, got)
		}
	}
	if n.hot[0] != 0b011 {
		t.Errorf("active set %03b, want both branch readers and nothing else", n.hot[0])
	}
}

// TestJoinANDGate: the join gates nothing — both branches read the step's one
// document event from the register — and merges the activations of both
// branches ahead of it, left branch first (Fig. 9). It is wiring: the reader
// behind the join is a destination of the writers of both branches, and the
// left branch's writer is visited, hence emits, first.
func TestJoinANDGate(t *testing.T) {
	n := wiringUnderTest()
	clear(n.hot)
	n.nodes[0].out.emit(testCfg.pool.Var(1))
	n.nodes[1].out.emit(testCfg.pool.Var(2))
	if got := render(actItems(n.inboxes[2].msgs)); got != "[v1] [v2]" {
		t.Fatalf("behind the join: %q, want [v1] [v2]", got)
	}
	if n.hot[0] != 0b100 {
		t.Errorf("active set %03b, want the join's reader only", n.hot[0])
	}
}

func actItems(fs []*cond.Formula) []tapeItem {
	out := make([]tapeItem, len(fs))
	for i, f := range fs {
		out[i] = actMsg(f)
	}
	return out
}

// TestUnionMergesPerDocMessage: UN merges the activations preceding one
// document message into their disjunction (Fig. 10).
func TestUnionMergesPerDocMessage(t *testing.T) {
	un := newUnion(testCfg)
	out := feedAll(un, msgs(
		actMsg(testCfg.pool.Var(1)), actMsg(testCfg.pool.Var(2)), start("a"),
		end("a"),
		actMsg(testCfg.pool.Var(3)), start("b"),
	))
	want := "[v1∨v2] <a> </a> [v3] <b>"
	if render(out) != want {
		t.Fatalf("got  %s\nwant %s", render(out), want)
	}
}

// applyAll runs a determinant on the activations and returns the
// determinations it originated.
func applyAll(d *determinant, fs ...*cond.Formula) (out []tapeItem) {
	d.store.trace = func(_ string, dt det) { out = append(out, tapeItem{kind: obs.KindDetermination, det: dt}) }
	for _, f := range fs {
		d.apply(f)
	}
	return out
}

// TestVFRestrictsFormulas: the determinant's filter VF(q+) keeps only the
// qualifier's variables (and those of qualifiers nested in its condition), so
// a variable of an unrelated qualifier never becomes part of a witness.
func TestVFRestrictsFormulas(t *testing.T) {
	pool := cond.NewPool()
	q1 := pool.DeclareQualifier(nil)
	q2 := pool.DeclareQualifier(nil)
	v1 := pool.Fresh(q1)
	v2 := pool.Fresh(q2)
	f := pool.And(pool.Var(v1), pool.Var(v2))

	if got := pool.Restrict(f, q1, true).String(); got != "v0" {
		t.Fatalf("VF(q+): %s", got)
	}
	if got := pool.Restrict(f, q1, false).String(); got != "v1" {
		t.Fatalf("VF(q-): %s", got)
	}
	vd := newDeterminant(q1, false, cfgFor(pool), newCondStore(cfgFor(pool)))
	if got := render(applyAll(vd, f)); got != "{v0,true}" {
		t.Fatalf("VF(q+) then VD on %s: %s, want {v0,true}", f, got)
	}
}

// TestVDEmitsWitnesses: VD turns activations into determinations, one per
// variable of its qualifier, consuming the activation.
func TestVDEmitsWitnesses(t *testing.T) {
	pool := cond.NewPool()
	q := pool.DeclareQualifier(nil)
	v1 := pool.Fresh(q)
	v2 := pool.Fresh(q)
	vd := newDeterminant(q, false, cfgFor(pool), newCondStore(cfgFor(pool)))
	want := "{v0,true} {v1,true}"
	if got := render(applyAll(vd, pool.Or(pool.Var(v1), pool.Var(v2)))); got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
	if vd.n != 2 {
		t.Fatalf("%d determinations originated, want 2", vd.n)
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
	vd := newDeterminant(outer, false, cfgFor(pool), newCondStore(cfgFor(pool)))
	out := applyAll(vd, pool.And(pool.Var(vo), pool.Var(vi)))
	if len(out) != 1 {
		t.Fatalf("got %s", render(out))
	}
	m := out[0]
	if m.kind != obs.KindDetermination || m.det.v != vo || m.det.witness.String() != "v0" {
		t.Fatalf("got %s", m)
	}
}
