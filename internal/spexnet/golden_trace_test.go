package spexnet_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/rpeq"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// The trace goldens under testdata/traces were recorded from the per-hop
// broadcast engine (every transducer re-emitting every document message)
// immediately before it was replaced by the register + active-set engine.
// They list every activation and determination message any transducer
// emitted, as "step node message" lines in emission order, so the engine may
// elide document messages but may not drop, add or reorder a single
// non-document message.
//
// Regenerate with: go test ./internal/spexnet -run TestTraceGoldens -update-traces
// (only ever legitimate when the message protocol itself changes).
var updateTraces = flag.Bool("update-traces", false, "rewrite testdata/traces from the current engine")

// figure1 is the document of the paper's Fig. 1; figure1Values has the same
// shape with attributes and character data for the value-testing queries.
const (
	figure1       = `<a><a><c/></a><b/><c/></a>`
	figure1Values = `<a id="1"><a id="2" k="v"><c>x</c></a><b/><c id="3">y</c></a>`
)

// traceOf evaluates the queries in one BuildSet network over src and returns
// the activation/determination trace followed by the answers of each sink.
// Emissions of the attribute-selection transducer AS(@a) are left out: that
// node had the output transducer as its only reader and was folded into it,
// so the activation it re-emitted is no longer a message on any tape; the
// answers it produced are pinned by the "answer" lines instead.
func traceOf(t *testing.T, src xmlstream.Source, queries ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	specs := make([]spexnet.Spec, len(queries))
	for i, q := range queries {
		// The following/preceding axes exist in the XPath surface only.
		var opts []rpeq.ParseOption
		if strings.HasPrefix(q, "/") {
			opts = append(opts, rpeq.WithXPath())
		}
		expr, err := rpeq.Parse(q, opts...)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		i := i
		specs[i] = spexnet.Spec{Expr: expr, Mode: spexnet.ModeNodes, Sink: func(r spexnet.Result) {
			fmt.Fprintf(&buf, "answer q%d %s@%d\n", i, r.Name, r.Index)
		}}
	}
	net, err := spexnet.BuildSet(specs, spexnet.Options{
		Tracer: obs.TracerFunc(func(ev obs.TraceEvent) {
			if ev.Kind == obs.KindDoc || strings.HasPrefix(ev.Node, "AS(") {
				return
			}
			fmt.Fprintf(&buf, "%d %s %s\n", ev.Step, ev.Node, ev.Msg)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(src); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "traces", name+".txt")
	if *updateTraces {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: first difference at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, golden has %d", path, len(gl), len(wl))
	}
}

func TestTraceGoldens(t *testing.T) {
	cases := []struct{ name, doc, query string }{
		{"fig1_child", figure1, "a.c"},
		{"fig1_closure_qual", figure1, "_*.a[b].c"},
		{"fig1_closure", figure1, "_*.c"},
		{"fig1_union_optional", figure1, "(a|b).c?"},
		{"fig1_negation", figure1, "a[not(b)].c"},
		{"fig1_attr_test", figure1Values, `_*.a[@id="2"].c`},
		{"fig1_attr_select", figure1Values, "_*.c.@id"},
		{"fig1_text_test", figure1Values, `_*.a[c="y"]`},
		{"fig1_following", figure1, "//b/following::c"},
		{"fig1_preceding", figure1, "//b/preceding::c"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := xmlstream.NewScanner(strings.NewReader(c.doc))
			checkGolden(t, c.name, traceOf(t, src, c.query))
		})
	}
	t.Run("dmoz_set", func(t *testing.T) {
		// Three members of the benchmark's subscription corpus sharing a
		// spine, in one hash-consed network with fan-out junctions, over a
		// 50-topic DMOZ-shaped document.
		subs := bench.SharedSubscriptions(128, 0.5, 1)
		members := []string{subs[5], subs[16], subs[6]}
		doc := dataset.DMOZStructure(50.0 / 690000)
		checkGolden(t, "dmoz_set", traceOf(t, doc.Stream(), members...))
	})
}
