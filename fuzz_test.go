package spex

import (
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/multi"
	"repro/internal/rpeq"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// fuzzDoc interprets prog as a tree-building program and renders the
// resulting document: each byte either closes the innermost open element
// (odd bytes) or opens one of four names (even bytes, two name-selector
// bits). An opening byte's higher bits attach attributes: bit 3 adds k
// (value "1" or "2" by bit 5), bit 4 adds s="v" — so the fuzzer explores
// attribute presence and value agreement alongside tree shape. The whole
// program is wrapped in a <r> root, so any byte string yields a
// well-formed, single-rooted, element-only document — the fuzzer explores
// tree shapes instead of fighting XML syntax.
func fuzzDoc(prog []byte) string {
	const maxOps = 96
	if len(prog) > maxOps {
		prog = prog[:maxOps]
	}
	names := [4]string{"a", "b", "c", "q"}
	var b strings.Builder
	var stack []string
	b.WriteString("<r>")
	for _, op := range prog {
		if op&1 == 1 {
			if n := len(stack); n > 0 {
				b.WriteString("</" + stack[n-1] + ">")
				stack = stack[:n-1]
			}
			continue
		}
		name := names[(op>>1)&3]
		b.WriteString("<" + name)
		if op&8 != 0 {
			if op&32 != 0 {
				b.WriteString(` k="2"`)
			} else {
				b.WriteString(` k="1"`)
			}
		}
		if op&16 != 0 {
			b.WriteString(` s="v"`)
		}
		b.WriteString(">")
		stack = append(stack, name)
	}
	for i := len(stack) - 1; i >= 0; i-- {
		b.WriteString("</" + stack[i] + ">")
	}
	b.WriteString("</r>")
	return b.String()
}

// fuzzProg renders a shape spelled as a string of opens (a, b, c, q) and
// closes (any other byte, conventionally '.') into the program encoding —
// the inverse of fuzzDoc, for seeding the corpus with specific trees.
func fuzzProg(shape string) []byte {
	sel := map[byte]byte{'a': 0, 'b': 1, 'c': 2, 'q': 3}
	prog := make([]byte, len(shape))
	for i := 0; i < len(shape); i++ {
		if c, ok := sel[shape[i]]; ok {
			prog[i] = c << 1
		} else {
			prog[i] = 1
		}
	}
	return prog
}

// FuzzEngineEquivalence is the differential correctness harness: for every
// query the compiler accepts and every generated document, single-query
// evaluation and the set engine — inline, sharded, and standing over several
// documents — must report exactly the answer count of the DOM tree-walk oracle. The seed corpus covers the
// paper's Figure-1 running example ("<a><a><c/></a><b/><c/></a>", here
// nested under the generated root) and the adversarial query shapes.
func FuzzEngineEquivalence(f *testing.F) {
	// Opens/closes spelling Fig. 1's document: <a><a><c/></a><b/><c/></a>.
	fig1 := fuzzProg("aac..b.c..")
	for _, q := range []string{
		"_*.a[b].c", "_*.c", "_*.a[c].c", "a.a.c", "_*.a[_*.b]",
		"_*[_*[q]]", "(a|b).c", "a+.c", "//a[b]/c", "_*.a[b]._*.c",
	} {
		f.Add(q, fig1)
	}
	f.Add("_*.b[preceding::a]", fuzzProg("a.b."))
	f.Add("r.a", []byte{})
	// Attribute-bearing shapes: Fig. 1 with k="1" on every element, and a
	// mixed shape where only some elements carry k or s.
	attrFig1 := fuzzProg("aac..b.c..")
	for i := range attrFig1 {
		attrFig1[i] |= 8
	}
	for _, q := range []string{
		`_*.a[@k]`, `_*.a[@k="1"].c`, `_*.a[@k!="1"]`, `_*.a[not(@k)]`,
		`_*.a[@k and not(@s)].c`, `_*._.@k`, `//a[@k='1']/c`, `_*.a[@s or c]`,
	} {
		f.Add(q, attrFig1)
	}
	f.Add(`_*.a[@k="2"]`, []byte{8 | 32, 8, 16, 1, 1, 1})
	// Shapes for the active set and the sparse stacks: child paths that go
	// idle under a deep non-matching subtree and are re-armed at the same
	// depth by a sibling, and a qualifier decided across such a subtree.
	noise := fuzzProg("qqqq....ac.b.qq..c..a.qc..c..")
	for _, q := range []string{
		"r.a.c", "r.a[b].c", "r.a[c].b", "_*.a[q].c", "r.q.q.q", "r.a?.c", "(r.a|r.q).c",
	} {
		f.Add(q, noise)
	}
	attrNoise := append([]byte(nil), noise...)
	attrNoise[4*2] |= 8 // the first a
	attrNoise[len(attrNoise)-9] |= 8 | 32
	f.Add("r.a.@k", attrNoise)
	f.Add(`r.a[@k="1"].c`, attrNoise)
	// Shapes for the condition store: a witness or kill in the step of, or
	// the step before, the scope-exit finalization (text tests compare the
	// empty string here — the documents are element-only), residual witnesses
	// resolved by a cascade, and variables that outlive their scope under the
	// extension axes.
	store := fuzzProg("ac.b..ab.c..aac.b..c.b..qa.c.bc...c.")
	for _, q := range []string{
		`_*.a[b=""].c`, `_*.a[not(b="")].c`, `_*.a[not(b)].c`, "_*.a[b[c]].c", "_*.a[b[not(c)]].c",
		"_*.a[_*.b[c]]._*.c", "//a[b]/following::c", "//a[b]/preceding::c", "//b/preceding::a/c",
	} {
		f.Add(q, store)
	}

	f.Fuzz(func(t *testing.T, query string, prog []byte) {
		if len(query) > 48 {
			return // keep per-input cost bounded
		}
		var plan *core.Plan
		expr, err := rpeq.Parse(query)
		if err == nil {
			if plan, err = core.Prepare(query); err != nil {
				return // parsed but outside the compiled fragment
			}
		} else {
			if expr, err = rpeq.Parse(query, rpeq.WithXPath()); err != nil {
				return
			}
			// The engines take the tree: the rpeq rendering of an XPath-only
			// construct (the following/preceding axes) does not parse back.
			plan = core.FromAST(expr)
			query = expr.String()
		}
		doc := fuzzDoc(prog)

		nodes, err := baseline.EvalReader(baseline.TreeWalk{}, strings.NewReader(doc), expr)
		if err != nil {
			t.Fatalf("oracle failed on generated doc %q: %v", doc, err)
		}
		want := int64(len(nodes))

		scan := func() xmlstream.Source {
			return xmlstream.NewScanner(strings.NewReader(doc), xmlstream.WithText(false))
		}
		check := func(arm string, got int64, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %q over %q: %v", arm, query, doc, err)
			}
			if got != want {
				t.Fatalf("%s diverges from the DOM oracle on %q over %q: %d matches, oracle %d",
					arm, query, doc, got, want)
			}
		}
		// The reference arm is the query alone on its own network.
		stats, err := plan.Evaluate(scan(), core.EvalOptions{Mode: spexnet.ModeCount})
		check("single", stats.Output.Matches, err)
		// The set arms run the same plan through the one set engine, inline
		// and sharded (shards clamp to the one subscription; what the
		// sharded arm adds is a batch boundary every third event).
		sub := []multi.Subscription{{Name: "q", Plan: plan}}
		inline := func() (fuzzSet, error) { return multi.NewMergedSet(sub) }
		sharded := func() (fuzzSet, error) {
			return multi.NewParallelSet(sub, multi.ParallelOptions{Shards: 2, BatchSize: 3})
		}
		got, err := countThrough(inline, scan())
		check("inline", got, err)
		got, err = countThrough(sharded, scan())
		check("parallel", got, err)
		// The standing-Set arm: the document, a truncated copy of it (an
		// unclean ending, after which the network is built again) and the
		// document once more, all through ONE Set — the second pass runs on
		// the rewound network of the first.
		set := NewSet([]*Query{{plan: plan}}, nil)
		for _, input := range []string{doc, doc, doc[:len(doc)/2], doc} {
			err := set.Evaluate(strings.NewReader(input))
			if len(input) == len(doc) {
				check("standing set", set.Counts()[0], err)
			} else if err == nil {
				t.Fatalf("standing set: truncated document %q evaluated without error", input)
			}
		}
	})
}

// fuzzSet is what the harness needs of a set engine.
type fuzzSet interface {
	Run(src xmlstream.Source) error
	Matches() map[string]int64
}

// countThrough builds a set engine, drains src through it and returns the
// count of the one subscription "q".
func countThrough(mk func() (fuzzSet, error), src xmlstream.Source) (int64, error) {
	eng, err := mk()
	if err != nil {
		return 0, err
	}
	if err := eng.Run(src); err != nil {
		return 0, err
	}
	return eng.Matches()["q"], nil
}
