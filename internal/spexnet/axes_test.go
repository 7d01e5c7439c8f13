package spexnet

import (
	"testing"

	"repro/internal/cond"
	"repro/internal/obs"
	"repro/internal/xmlstream"
)

// Direct unit tests for the extension transducers (following, preceding,
// text test); the semantic cross-validation against the DOM lives in
// internal/baseline.

func TestFollowingTransducerDirect(t *testing.T) {
	fo := newFollowing("b", testCfg)
	out := feedAll(fo, msgs(
		startDoc(),
		start("r"),
		actMsg(cond.True()), start("x"), // context
		start("b"), end("b"), // descendant of the context: NOT matched
		end("x"),             // scope opens here
		start("b"), end("b"), // matched
		start("y"),
		start("b"), end("b"), // matched (any depth)
		end("y"),
		end("r"),
		endDoc(),
	))
	var acts int
	for _, m := range out {
		if m.kind == obs.KindActivation {
			acts++
		}
	}
	if acts != 2 {
		t.Fatalf("matched %d, want 2:\n%s", acts, render(out))
	}
}

func TestPrecedingTransducerDirect(t *testing.T) {
	pool := cond.NewPool()
	q := pool.DeclareQualifier(nil)
	pr := newPreceding("b", q, cfgFor(pool), newCondStore(&netConfig{retainVars: true, pool: pool}))
	out := feedAll(pr, msgs(
		startDoc(),
		start("r"),
		start("b"), end("b"), // candidate 1: precedes the context
		actMsg(cond.True()), start("x"), end("x"), // context: credits candidate 1
		start("b"), end("b"), // candidate 2: never credited
		end("r"),
		endDoc(),
	))
	var wit, fin, acts int
	for _, m := range out {
		switch {
		case m.kind == obs.KindActivation:
			acts++
		case m.kind == obs.KindDetermination && m.det.final():
			fin++
		case m.kind == obs.KindDetermination:
			wit++
		}
	}
	// Two candidate activations; one witnessed (with its finalization at
	// credit time) and one finalized unsatisfied at end of stream.
	if acts != 2 || wit != 1 || fin != 2 {
		t.Fatalf("acts=%d wit=%d fin=%d:\n%s", acts, wit, fin, render(out))
	}
}

func TestTextCmpTransducerDirect(t *testing.T) {
	te := newTextCmp(0 /* TextEq */, "hi", testCfg)
	out := feedAll(te, msgs(
		startDoc(),
		actMsg(cond.True()), start("p"),
		chars("h"),
		start("b"), chars("i"), end("b"),
		end("p"), // string value "hi": activation re-emitted here
		actMsg(cond.True()), start("p"),
		chars("no"),
		end("p"), // no match
		endDoc(),
	))
	var acts []int
	for i, m := range out {
		if m.kind == obs.KindActivation {
			acts = append(acts, i)
		}
	}
	if len(acts) != 1 {
		t.Fatalf("activations: %d, want 1:\n%s", len(acts), render(out))
	}
	// The re-emission precedes the first </p>.
	if out[acts[0]+1].ev.Kind != xmlstream.EndElement {
		t.Fatalf("activation not at the end message:\n%s", render(out))
	}
}
