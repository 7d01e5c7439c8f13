package spexnet_test

import (
	"bytes"
	"flag"
	"fmt"
	"io"
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
// immediately before it was replaced by the register + active-set engine, as
// "step node message" lines in emission order. When determinations left the
// tapes for the condition store they were not re-recorded but DERIVED from
// those files, step by step, by rule:
//
//  1. every activation line is kept, in place;
//  2. every determination line is kept once, at its originating transducer
//     (the node whose visit — a run of consecutive lines by one node — first
//     emits it in the step), and the copies the transducers between it and
//     the sinks used to forward are dropped;
//  3. a determination originated behind the step's event — all of VC's: the
//     scope-exit {c,true} of a negated qualifier and every {c,close} — moves
//     behind the step's other messages, in emission order, which is where it
//     takes effect;
//  4. the answers delivered during a step are listed at its end, in ascending
//     sink order and each sink's in delivery order: a determination now decides
//     candidates where it originates, not when it reaches the sink, so only
//     the step of an answer is comparable, and only that is guaranteed.
//
// When the connectors of Fig. 11 became wiring (lower.go) the files were
// derived once more, by one rule, and the change was first shown to pass
// against the parent's files read through it:
//
//  5. every line of SP, JO, FO and VF(q+) is dropped — they are not nodes, so
//     nothing of theirs is emitted — and every other line is unchanged, in
//     place. A determination keeps the name of VD although VD is an edge
//     function of the node whose activation it consumes.
//
// So the engine may not drop, add or reorder a single activation, may not
// originate a determination anywhere else or in another step, and may not
// move an answer to another step.
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
// the activation/determination trace with the answers of each step behind the
// step's messages. Left out are the document event, which is traced at every
// visit, and the sink-side record of a determination ("OU": one per sink a
// resolution changed), which the parent engine had no counterpart for; the
// answers pin what the sinks made of the determinations instead.
func traceOf(t *testing.T, src xmlstream.Source, queries ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	answers := make([][]string, len(queries)) // of the current step, by sink
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
			answers[i] = append(answers[i], fmt.Sprintf("answer q%d %s@%d\n", i, r.Name, r.Index))
		}}
	}
	net, err := spexnet.BuildSet(specs, spexnet.Options{
		Tracer: obs.TracerFunc(func(ev obs.TraceEvent) {
			if ev.Kind == obs.KindDoc || ev.Node == "OU" {
				return
			}
			fmt.Fprintf(&buf, "%d %s %s\n", ev.Step, ev.Node, ev.Msg)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for {
		ev, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Step(ev); err != nil {
			t.Fatal(err)
		}
		for i := range answers {
			for _, a := range answers[i] {
				buf.WriteString(a)
			}
			answers[i] = answers[i][:0]
		}
	}
	if err := net.Finish(); err != nil {
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
		// spine, in one hash-consed network with shared tapes, over a
		// 50-topic DMOZ-shaped document.
		subs := bench.SharedSubscriptions(128, 0.5, 1)
		members := []string{subs[5], subs[16], subs[6]}
		doc := dataset.DMOZStructure(50.0 / 690000)
		checkGolden(t, "dmoz_set", traceOf(t, doc.Stream(), members...))
	})
}
