package xmlstream

import (
	"errors"
	"strings"
	"testing"
)

// FuzzScanner feeds arbitrary bytes to the scanner: it must never panic, it
// must agree with the reference engine (seed_test.go) on the events, the
// error class and the error offset, and whenever it accepts a document the
// events must be balanced and the serialization must rescan to the same
// events.
func FuzzScanner(f *testing.F) {
	seeds := []string{
		`<a><a><c/></a><b/><c/></a>`,
		`<?xml version="1.0"?><r a="1">t<!--c--><x/><![CDATA[<]]></r>`,
		`<a>&lt;&unknown;</a>`,
		`<a`, `</a>`, `<a></b>`, `<!DOCTYPE r [<!ELEMENT r ANY>]><r/>`,
		``, `plain`, `<a><b/></a><c/>`, "<\x00>", "<a>\xff</a>",
		`<a k="1" l='&amp;"'/>`, `<a k="1" k="2"/>`, `<a k=1/>`, `<a k="`,
		`<items><item status="closed"><summary/></item></items>`,
		// Whitespace-gapped self-closing tags, CDATA terminators and comment
		// dashes, text runs: the constructs whose every prefix is a
		// truncation of its own kind.
		`<r><a/ ><![CDATA[x]]]]><!----->--<b x=">"/></r>`,
		`<r>tail text runs past every boundary</r><?pi?>`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		seed := newSeedScanner(strings.NewReader(doc))
		seedEvs, seedErr := Collect(seed)
		sc := NewScanner(strings.NewReader(doc))
		evs, err := Collect(sc)
		// Engine equivalence holds for malformed inputs too: same events
		// delivered before the error, same error class and offset.
		if errClass(err) != errClass(seedErr) {
			t.Fatalf("engines disagree on %q: err %v, seed err %v", doc, err, seedErr)
		}
		if err != nil && sc.ErrorOffset() != seed.ErrorOffset() {
			t.Fatalf("engines disagree on %q: ErrorOffset %d, seed %d (err %v)", doc, sc.ErrorOffset(), seed.ErrorOffset(), err)
		}
		if len(evs) != len(seedEvs) {
			t.Fatalf("engines disagree on %q: %d events vs seed %d", doc, len(evs), len(seedEvs))
		}
		for i := range evs {
			if !sameEvent(evs[i], seedEvs[i]) {
				t.Fatalf("engines disagree on %q at event %d: %v vs seed %v", doc, i, evs[i], seedEvs[i])
			}
		}
		if err != nil {
			return // malformed input is fine; panics are not
		}
		// Accepted documents must be balanced.
		depth := 0
		for _, ev := range evs {
			switch ev.Kind {
			case StartElement:
				depth++
			case EndElement:
				depth--
				if depth < 0 {
					t.Fatalf("unbalanced events for %q: %v", doc, evs)
				}
			}
		}
		if depth != 0 {
			t.Fatalf("unclosed events for %q: %v", doc, evs)
		}
		// Round trip. Adjacent text events (e.g. character data next to a
		// CDATA section) legitimately coalesce, so compare merged forms.
		evs2, err := Collect(NewScanner(strings.NewReader(Serialize(evs))))
		if err != nil {
			t.Fatalf("serialization of %q does not rescan: %v", doc, err)
		}
		a, b := mergeText(evs), mergeText(evs2)
		if len(a) != len(b) {
			t.Fatalf("round trip changed event count for %q: %d vs %d", doc, len(a), len(b))
		}
		for i := range a {
			if !sameEvent(a[i], b[i]) {
				t.Fatalf("round trip changed event %d for %q: %v vs %v", i, doc, a[i], b[i])
			}
		}
	})
}

// mergeText coalesces runs of adjacent text events.
func mergeText(evs []Event) []Event {
	var out []Event
	for _, ev := range evs {
		if ev.Kind == Text && len(out) > 0 && out[len(out)-1].Kind == Text {
			out[len(out)-1].Data += ev.Data
			continue
		}
		out = append(out, ev)
	}
	return out
}

// errClass names the sentinel err matches: the error classes the engines
// must agree on.
func errClass(err error) string {
	for _, e := range []error{ErrTruncated, ErrTokenTooLarge, ErrTooDeep, ErrDuplicateAttr} {
		if errors.Is(err, e) {
			return e.Error()
		}
	}
	if err != nil {
		return "malformed"
	}
	return "<nil>"
}
