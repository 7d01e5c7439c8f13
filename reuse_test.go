package spex

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/spexnet"
)

// reuseStep is one evaluation in a sequence run on one Set: a document and,
// optionally, a way for it not to end cleanly.
type reuseStep struct {
	name string
	doc  []byte
	// cancelAfter > 0 cancels the evaluation's context once the reader has
	// handed out that many bytes; panicAt > 0 makes the callback panic at
	// that answer (the caller recovers).
	cancelAfter int
	panicAt     int
}

// reuseOutcome is everything an evaluation reports.
type reuseOutcome struct {
	err        string
	panicked   bool
	hits       []engineHit
	counts     []int64
	determined bool
	stats      spexnet.Stats
}

// cancellingReader cancels a context once it has handed out after bytes; it
// reads in small pieces so that the cancellation lands between two reads.
type cancellingReader struct {
	r      io.Reader
	after  int
	cancel context.CancelFunc
}

func (c *cancellingReader) Read(p []byte) (int, error) {
	if len(p) > 512 {
		p = p[:512]
	}
	n, err := c.r.Read(p)
	if c.after -= n; c.after <= 0 {
		c.cancel()
	}
	return n, err
}

// reuseHarness owns a Set whose callback records hits and panics on demand.
type reuseHarness struct {
	set     *Set
	hits    []engineHit
	panicAt int
}

func newReuseHarness(queries []*Query, opts ...SetOption) *reuseHarness {
	h := &reuseHarness{}
	h.set = NewSet(queries, func(q int, m Match) {
		h.hits = append(h.hits, engineHit{q, m.Index, m.Name})
		if h.panicAt > 0 && len(h.hits) == h.panicAt {
			panic("callback panics")
		}
	}, opts...)
	return h
}

func (h *reuseHarness) run(step reuseStep) (out reuseOutcome) {
	h.hits, h.panicAt = nil, step.panicAt
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var r io.Reader = bytes.NewReader(step.doc)
	if step.cancelAfter > 0 {
		r = &cancellingReader{r: r, after: step.cancelAfter, cancel: cancel}
	}
	func() {
		defer func() {
			if p := recover(); p != nil {
				out.panicked = true
			}
		}()
		if err := h.set.EvaluateContext(ctx, r); err != nil {
			out.err = err.Error()
		}
	}()
	out.hits, out.counts, out.determined = h.hits, h.set.Counts(), h.set.Determined()
	if h.set.eng != nil {
		out.stats = h.set.eng.Stats()
	}
	return out
}

// checkReuse runs the steps in order on ONE Set and requires every one of them
// to report what a new Set reports on the same step alone.
func checkReuse(t *testing.T, label string, queries []*Query, opts []SetOption, steps []reuseStep) {
	t.Helper()
	one := newReuseHarness(queries, opts...)
	for i, step := range steps {
		got := one.run(step)
		want := newReuseHarness(queries, opts...).run(step)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: step %d (%s) on the standing Set:\n err %q panicked %v determined %v counts %v hits %d\n stats %+v\non a new Set:\n err %q panicked %v determined %v counts %v hits %d\n stats %+v",
				label, i+1, step.name,
				got.err, got.panicked, got.determined, got.counts, len(got.hits), got.stats,
				want.err, want.panicked, want.determined, want.counts, len(want.hits), want.stats)
		}
	}
}

// reuseSequence is the sequence every corpus goes through on an ungoverned,
// unlimited Set: clean passes over two documents, and every way a pass can end
// badly, each followed by a clean one.
func reuseSequence(a, b []byte) []reuseStep {
	return []reuseStep{
		{name: "A", doc: a},
		{name: "B", doc: b},
		{name: "A again", doc: a},
		{name: "A truncated", doc: a[:len(a)*2/3]},
		{name: "B after truncation", doc: b},
		{name: "A cancelled mid-stream", doc: a, cancelAfter: len(a) / 2},
		{name: "B after cancellation", doc: b},
		{name: "A, callback panics", doc: a, panicAt: 1},
		{name: "B after the panic", doc: b},
		{name: "A at last", doc: a},
	}
}

// TestSetReuseEqualsFresh: a rewound network is a fresh network. Over the
// interning corpus, the 128-subscription corpus and the adversarial shapes,
// every evaluation of a sequence on one Set — clean ones over different
// documents, and a clean one after each unclean ending: truncated input, a
// context cancelled mid-stream, every answer limit reached, a governor trip
// under PolicyFail and under PolicyShed, a panic in the callback — reports the
// answers, Counts, Determined and engine statistics (events, visits,
// deliveries, stack and formula maxima, candidates) of a new Set on the same
// document.
func TestSetReuseEqualsFresh(t *testing.T) {
	type corpus struct {
		name    string
		queries []string
		a, b    []byte
	}
	var corpora []corpus
	for i, tc := range interningCorpus {
		other := interningCorpus[(i+1)%len(interningCorpus)].doc
		corpora = append(corpora, corpus{tc.name, tc.queries, []byte(tc.doc), []byte(other)})
	}
	corpora = append(corpora, corpus{
		name:    "subscriptions",
		queries: bench.SharedSubscriptions(128, 0.5, 1),
		a:       dataset.DMOZStructure(0.0005).Bytes(),
		b:       dataset.DMOZStructure(0.0002).Bytes(),
	})
	scale := 0.004
	if testing.Short() {
		scale = 0.001
	}
	adversarial := dataset.AdversarialAt(scale)
	for i, c := range adversarial {
		other := adversarial[(i+1)%len(adversarial)].Doc.Bytes()
		corpora = append(corpora, corpus{"adversarial/" + c.Doc.Name, []string{c.Query}, c.Doc.Bytes(), other})
	}

	for _, c := range corpora {
		c := c
		t.Run(c.name, func(t *testing.T) {
			queries := make([]*Query, len(c.queries))
			limited := make([]*Query, len(c.queries))
			for i, q := range c.queries {
				queries[i] = MustCompile(q)
				limited[i] = queries[i].Limited(1)
			}
			checkReuse(t, "plain", queries, nil, reuseSequence(c.a, c.b))
			// Every query limited to its first answer: a document in which each
			// has one determines the set and releases the network early.
			checkReuse(t, "limited", limited, nil, []reuseStep{
				{name: "A", doc: c.a}, {name: "B", doc: c.b}, {name: "A again", doc: c.a},
				{name: "A, callback panics", doc: c.a, panicAt: 1}, {name: "B after the panic", doc: c.b},
			})
			// A depth cap every corpus document exceeds and <x><y/></x> does not.
			shallow := []byte(`<x><y/></x>`)
			for _, policy := range []Policy{PolicyFail, PolicyShed} {
				governed := []SetOption{Governed(ResourceLimits{MaxDepth: 2}, policy)}
				checkReuse(t, fmt.Sprintf("governed, policy %v", policy), queries, governed, []reuseStep{
					{name: "A trips", doc: c.a}, {name: "shallow", doc: shallow}, {name: "shallow again", doc: shallow},
					{name: "B trips", doc: c.b}, {name: "shallow after B", doc: shallow},
				})
			}
		})
	}
}

// TestSetDeterminedResetsAfterFailedPass: Determined describes the last
// evaluation, also when that one failed. It used to keep the verdict of the
// last successful one.
func TestSetDeterminedResetsAfterFailedPass(t *testing.T) {
	set := NewSet([]*Query{MustCompile("_*.c limit 1")}, nil)
	if err := set.Evaluate(strings.NewReader(paperDoc)); err != nil {
		t.Fatal(err)
	}
	if !set.Determined() {
		t.Fatal("a limit-1 query over a document with an answer did not determine the set")
	}
	if err := set.Evaluate(strings.NewReader(`<a><b>`)); err == nil {
		t.Fatal("truncated document evaluated without error")
	}
	if set.Determined() {
		t.Error("Determined() is true after a pass that failed before any answer")
	}
}
