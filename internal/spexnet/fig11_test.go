package spexnet

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"repro/internal/cond"
	"repro/internal/dataset"
	"repro/internal/rpeq"
	"repro/internal/xmlstream"
)

// fig11 is the reference the lowering is held against: the network of Fig. 11
// with every connector a node — SP and JO, and VF(q+)→VD visited in their
// topological place — run by the plainest engine there is: every node is
// visited on every event, in construction order, and reads all its input
// tapes in port order; a tape may have any number of readers and is cleared at
// the end of the step. The stateful transducers, the determinant and the
// condition store are the shipped ones; the translation, the connectors and
// the runner are not.
type fig11 struct {
	net    *Network // carries the config, the condition store and the register
	b      *builder // hosts the ports the transducers emit on
	source *refTape
	nodes  []*refNode
	tapes  []*refTape
	memo   map[string]memoRef
	depth  int
	elems  int64
}

type refTape struct{ msgs []*cond.Formula }

type memoRef struct {
	out   *refTape
	quals []cond.QualID
}

type refNode struct {
	kind string       // "SP", "JO", "VD", or "" for a transducer
	t    transducer   // kind ""
	det  *determinant // kind "VD": the filter and the determinant
	node int          // kind "": its node in the hosting network
	ins  []*refTape
	outs []*refTape
	log  []string // kind "": the activations fed, "step [f]"
}

func newFig11() *fig11 {
	n := &Network{cfg: netConfig{pool: cond.NewPool(), symtab: xmlstream.NewSymtab()}}
	n.store = newCondStore(&n.cfg)
	n.source = port{net: n, node: -1}
	g := &fig11{net: n, b: &builder{net: n}, memo: map[string]memoRef{}}
	g.source = g.tape()
	return g
}

func (g *fig11) tape() *refTape {
	tp := &refTape{}
	g.tapes = append(g.tapes, tp)
	return tp
}

func (g *fig11) add(nd *refNode, numOuts int, ins ...*refTape) []*refTape {
	nd.ins = ins
	for i := 0; i < numOuts; i++ {
		nd.outs = append(nd.outs, g.tape())
	}
	g.nodes = append(g.nodes, nd)
	return nd.outs
}

// transducer adds a stateful node. What it emits is caught in the inbox of a
// node of its own in the hosting network (a DROP nobody runs) and moved to
// its output tape after every visit.
func (g *fig11) transducer(t transducer, in *refTape) *refTape {
	w := g.b.addNode(t, g.b.newWire())
	g.b.addNode(newDropAct(), w)
	return g.add(&refNode{t: t, node: len(g.net.nodes) - 2}, 1, in)[0]
}

func (g *fig11) split(in *refTape) (left, right *refTape) {
	outs := g.add(&refNode{kind: "SP"}, 2, in)
	return outs[0], outs[1]
}

func (g *fig11) join(left, right *refTape) *refTape {
	return g.add(&refNode{kind: "JO"}, 1, left, right)[0]
}

// compile is C of Fig. 11, with the builder's hash-consing.
func (g *fig11) compile(expr rpeq.Node, in *refTape) (*refTape, []cond.QualID) {
	key := fmt.Sprintf("%p|%s", in, rpeq.Canonical(expr))
	if e, ok := g.memo[key]; ok {
		return e.out, e.quals
	}
	out, quals := g.compileNew(expr, in)
	g.memo[key] = memoRef{out, quals}
	return out, quals
}

func (g *fig11) compileNew(expr rpeq.Node, in *refTape) (*refTape, []cond.QualID) {
	cfg, store := &g.net.cfg, g.net.store
	switch n := expr.(type) {
	case *rpeq.Empty:
		return in, nil
	case *rpeq.Label:
		return g.transducer(newChild(n.Name, cfg), in), nil
	case *rpeq.Plus:
		return g.transducer(newClosure(n.Label.Name, cfg), in), nil
	case *rpeq.Star:
		pass, branch := g.split(in)
		plus, _ := g.compile(&rpeq.Plus{Label: n.Label}, branch)
		return g.join(pass, plus), nil
	case *rpeq.Optional:
		pass, branch := g.split(in)
		inner, quals := g.compile(n.Expr, branch)
		return g.join(pass, inner), quals
	case *rpeq.Concat:
		mid, lq := g.compile(n.Left, in)
		out, rq := g.compile(n.Right, mid)
		return out, append(lq, rq...)
	case *rpeq.Union:
		lin, rin := g.split(in)
		left, lq := g.compile(n.Left, lin)
		right, rq := g.compile(n.Right, rin)
		return g.transducer(newUnion(cfg), g.join(left, right)), append(lq, rq...)
	case *rpeq.Qualifier:
		neg := false
		condExpr := n.Cond
		if cn, ok := n.Cond.(*rpeq.CondNot); ok {
			neg, condExpr = true, cn.Expr
		}
		if rpeq.Nullable(condExpr) {
			panic("fig11: nullable conditions are compiled away before Fig. 11 applies")
		}
		base, bq := g.compile(n.Base, in)
		q := cfg.pool.DeclareQualifier(nil)
		vc := g.transducer(newVC(q, neg, cfg, store), base)
		pass, branch := g.split(vc)
		inner, cq := g.compile(condExpr, branch)
		cfg.pool.SetNested(q, cq)
		vd := g.add(&refNode{kind: "VD", det: newDeterminant(q, neg, cfg, store)}, 1, inner)[0]
		return g.join(pass, vd), append(append(bq, cq...), q)
	case *rpeq.TextTest:
		mid, quals := g.compile(n.Path, in)
		return g.transducer(newTextCmp(n.Op, n.Value, cfg), mid), quals
	case *rpeq.AttrTest:
		return g.transducer(newAttrTest(n.Pred, cfg), in), nil
	}
	panic(fmt.Sprintf("fig11: %T is not a construct of Fig. 11", expr))
}

// sink closes a query with its output transducer.
func (g *fig11) sink(expr rpeq.Node, fn Sink) {
	final, _ := g.compile(expr, g.source)
	out := newOutput(ModeNodes, fn, &g.net.cfg, &g.net.reg)
	g.net.store.addSink(out)
	g.transducer(out, final)
}

// step is Network.Step without the active set.
func (g *fig11) step(ev xmlstream.Event) {
	r := &g.net.reg
	r.step++
	r.depth = g.depth
	switch ev.Kind {
	case xmlstream.StartElement:
		g.elems++
		g.depth++
		r.depth, r.index = g.depth, g.elems
	case xmlstream.EndElement:
		g.depth--
	case xmlstream.StartDocument:
		r.index = 0
		g.source.msgs = append(g.source.msgs, cond.True())
	}
	if ev.Kind == xmlstream.StartElement || ev.Kind == xmlstream.EndElement {
		ev.Sym = g.net.cfg.symtab.Intern(ev.Name)
	}
	r.ev = ev
	for _, nd := range g.nodes {
		for _, in := range nd.ins {
			for _, f := range in.msgs {
				switch nd.kind {
				case "SP":
					nd.outs[0].msgs = append(nd.outs[0].msgs, f)
					nd.outs[1].msgs = append(nd.outs[1].msgs, f)
				case "JO":
					nd.outs[0].msgs = append(nd.outs[0].msgs, f)
				case "VD":
					nd.det.apply(f)
				default:
					nd.log = append(nd.log, fmt.Sprintf("%d [%s]", r.step, f))
					nd.t.feed(f)
				}
			}
		}
		if nd.kind == "" {
			nd.t.doc(r, &g.net.nodes[nd.node].out)
			caught := &g.net.inboxes[nd.node+1]
			nd.outs[0].msgs = append(nd.outs[0].msgs, caught.msgs...)
			caught.msgs = caught.msgs[:0]
		}
	}
	for _, tp := range g.tapes {
		tp.msgs = tp.msgs[:0]
	}
	g.net.store.drain()
}

// feedLog wraps a transducer of the lowered network to record the
// activations it is fed, like refNode.log.
type feedLog struct {
	transducer
	reg *docReg
	log []string
}

func (t *feedLog) feed(f *cond.Formula) {
	t.log = append(t.log, fmt.Sprintf("%d [%s]", t.reg.step, f))
	t.transducer.feed(f)
}

// stepLog collects "step text" lines and renders them with the lines of one
// step sorted: within a step the lowered network may originate a
// determination earlier than Fig. 11's (at the emission, not at VD's place in
// the order), never in another step.
type stepLog struct {
	reg   *docReg
	lines []string
}

func (l *stepLog) add(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf("%6d ", l.reg.step)+fmt.Sprintf(format, args...))
}

func (l *stepLog) String() string {
	sort.Strings(l.lines)
	return strings.Join(l.lines, "\n")
}

// compareWithFig11 evaluates the queries over the document in the lowered
// network and in the Fig. 11 reference and requires, transducer by
// transducer, the same activations in the same order — which at a port with
// two writers is JO's order, left branch first — and, step by step, the same
// determinations originated and the same answers delivered. It returns how
// many activations and how many determinations and answers it compared.
func compareWithFig11(t *testing.T, doc func() xmlstream.Source, queries ...string) (activations, decisions int) {
	t.Helper()
	exprs := make([]rpeq.Node, len(queries))
	for i, q := range queries {
		exprs[i] = rpeq.MustParse(q)
	}

	ref := newFig11()
	refLog := &stepLog{reg: &ref.net.reg}
	ref.net.store.trace = func(node string, d det) {
		if node != "OU" {
			refLog.add("%s %s", node, d)
		}
	}
	for i, e := range exprs {
		i := i
		ref.sink(e, func(r Result) { refLog.add("answer q%d %s@%d", i, r.Name, r.Index) })
	}
	ref.b.finish(nil)

	var low *Network
	lowLog := &stepLog{}
	specs := make([]Spec, len(exprs))
	for i, e := range exprs {
		i := i
		specs[i] = Spec{Expr: e, Mode: ModeNodes, Sink: func(r Result) { lowLog.add("answer q%d %s@%d", i, r.Name, r.Index) }}
	}
	low, err := BuildSet(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lowLog.reg = &low.reg
	low.store.trace = func(node string, d det) {
		if node != "OU" {
			lowLog.add("%s %s", node, d)
		}
	}
	fed := make([]*feedLog, len(low.nodes))
	for i := range low.nodes {
		fed[i] = &feedLog{transducer: low.nodes[i].t, reg: &low.reg}
		low.nodes[i].t = fed[i]
	}

	src := doc()
	for {
		ev, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ref.step(ev)
	}
	if _, err := low.Run(doc()); err != nil {
		t.Fatal(err)
	}

	var stateful []*refNode
	for _, nd := range ref.nodes {
		if nd.kind == "" {
			stateful = append(stateful, nd)
		}
	}
	if len(stateful) != len(fed) {
		t.Fatalf("%v: the lowered network has %d nodes, Fig. 11 has %d transducers that are not connectors", queries, len(fed), len(stateful))
	}
	for i, nd := range stateful {
		if got, want := fed[i].name(), nd.t.name(); got != want {
			t.Fatalf("%v: node %d is %s, Fig. 11's transducer %d is %s", queries, i, got, i, want)
		}
		got, want := strings.Join(fed[i].log, "\n"), strings.Join(nd.log, "\n")
		if got != want {
			t.Errorf("%v: node %d %s is fed\n%s\nin Fig. 11's network\n%s", queries, i, nd.t.name(), got, want)
		}
		activations += len(nd.log)
	}
	if got, want := lowLog.String(), refLog.String(); got != want {
		t.Errorf("%v: determinations and answers by step\n%s\nin Fig. 11's network\n%s", queries, got, want)
	}
	return activations, len(refLog.lines)
}

// TestLoweringKeepsFig11Order: for Union, Optional, Star and Qualifier — and
// their compositions, nested and negated qualifiers, value tests and a shared
// set — the activations reaching every transducer of the lowered network are
// those of Fig. 11's network in the same order. The qualifiers inside the
// branches give the activations of the two writers of a joined port different
// formulas, and the wildcard steps make both fire on the same event.
func TestLoweringKeepsFig11Order(t *testing.T) {
	docs := []func() xmlstream.Source{
		func() xmlstream.Source { return srcOf(`<a><a><c/></a><b/><c/></a>`) },
		func() xmlstream.Source { return srcOf(`<a id="1"><a id="2" k="v"><c>x</c></a><b/><c id="3">y</c></a>`) },
	}
	for seed := uint64(1); seed <= 6; seed++ {
		seed := seed
		docs = append(docs, func() xmlstream.Source {
			return dataset.RandomTree(seed, 6, 4, []string{"a", "b", "c"}).Stream()
		})
	}
	cases := [][]string{
		{"(a[b]|_[c])._"},          // Union: both branches fire on <a>
		{"_*.(a[b]|_[c]).c"},       // Union behind a Star
		{"_.(a[b])?._[c]"},         // Optional: pass-through and branch on one event
		{"_*.a[b]._*.c"},           // Star: pass-through and closure on one event
		{"_*.a[b].c"},              // Qualifier (Fig. 13)
		{"_*._[_+[c]]"},            // nested qualifiers, both determinants on one event
		{"_*.a[not(b)].c"},         // negated qualifier
		{"(a|b).c?"},               // the trace golden's union and optional
		{`_*.a[c="y"]`},            // text test in a condition
		{`_*._[@id="2"].c`},        // attribute test
		{"_*.a[b].c", "_*.a[b]._"}, // a shared spine: one tape, two readers
		{"_*.a[b].c", "_*.a[b].c", "_*.(a|b)[c]"},
	}
	for _, queries := range cases {
		activations, decisions := 0, 0
		for _, doc := range docs {
			a, d := compareWithFig11(t, doc, queries...)
			activations, decisions = activations+a, decisions+d
		}
		if activations == 0 || decisions == 0 {
			t.Errorf("%v: nothing compared (%d activations, %d determinations and answers)", queries, activations, decisions)
		}
	}
}
