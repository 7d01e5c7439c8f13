package xmlstream

import "testing"

// TestTapeOwnsItsPayload: what a tape holds does not change when the storage
// the appended events pointed into is rewritten, grows without disturbing
// what was appended before, and a warm tape appends without allocating.
func TestTapeOwnsItsPayload(t *testing.T) {
	window := []byte(`<item id="t1" status="open">first second`)
	view := func(lo, hi int) string { return string(window[lo:hi]) } // stands in for an unsafe view
	start := Event{Kind: StartElement, Name: "item", Attrs: []Attr{{Name: "id", Value: view(10, 12)}, {Name: "status", Value: view(22, 26)}}}
	text := Event{Kind: Text, Data: view(28, 40)}

	var tape Tape
	fill := func() {
		tape.Append(&start)
		for i := 0; i < 100; i++ { // far past the first blocks
			tape.Append(&text)
		}
		tape.Append(&Event{Kind: EndElement, Name: "item"})
	}
	fill()
	start.Attrs[0].Value, start.Attrs[1] = "overwritten", Attr{}
	evs := tape.Events()
	if tape.Len() != 102 || len(evs) != 102 {
		t.Fatalf("Len = %d, want 102", tape.Len())
	}
	if got := Serialize(evs[:2]); got != `<item id="t1" status="open">first second` {
		t.Fatalf("tape holds %q", got)
	}
	if got := evs[100].Data; got != "first second" {
		t.Fatalf("event 100 holds %q", got)
	}
	if clone := evs[0].Clone(); &clone.Attrs[0] == &evs[0].Attrs[0] || clone.Attrs[1].Value != "open" {
		t.Fatalf("Clone shares the attribute list or lost a value: %+v", clone)
	}

	size := tape.Size()
	tape.Reset()
	if tape.Len() != 0 || tape.Size() != size {
		t.Fatalf("Reset: Len %d, Size %d, want 0 and %d", tape.Len(), tape.Size(), size)
	}
	start.Attrs = []Attr{{Name: "id", Value: "t2"}}
	fill() // settles every block at its final size
	if allocs := testing.AllocsPerRun(10, func() { tape.Reset(); fill() }); allocs != 0 {
		t.Errorf("a warm tape allocates %.0f times per refill, want 0", allocs)
	}
}
