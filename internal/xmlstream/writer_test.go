package xmlstream

import (
	"runtime"
	"strings"
	"testing"
)

// TestSerializeAllocs pins the cost of rendering one answer at one
// allocation, the result string: Serialize takes one buffer, sized from the
// events' payload, which becomes the string, and a caller that renders many
// answers through AppendXML into a buffer it keeps (Query.Results) pays for
// the string it makes of the bytes and for nothing else — escapes included,
// which outgrow Serialize's estimate. (Serialize used to build a Writer with
// its 32 KiB stream buffer per call — 92 % of the extract_serialize
// workload's allocation.)
func TestSerializeAllocs(t *testing.T) {
	answer := []Event{Start("summary"), Chars("disk quota exceeded on volume 7"), End("summary")}
	want := "<summary>disk quota exceeded on volume 7</summary>"
	if got := Serialize(answer); got != want {
		t.Fatalf("Serialize: %q, want %q", got, want)
	}
	var sink string
	allocs := testing.AllocsPerRun(200, func() { sink = Serialize(answer) })
	if allocs != 1 {
		t.Errorf("Serialize: %.0f allocations per three-event answer, want 1", allocs)
	}
	escaped := []Event{Start("summary"), Chars("quota & volume <7>"), End("summary")}
	var buf []byte
	allocs = testing.AllocsPerRun(200, func() {
		buf = AppendXML(buf[:0], escaped)
		sink = string(buf)
	})
	if allocs != 1 || sink != "<summary>quota &amp; volume &lt;7&gt;</summary>" {
		t.Errorf("AppendXML into a kept buffer: %.0f allocations for %q, want 1", allocs, sink)
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sink = Serialize(answer)
	}
	runtime.ReadMemStats(&after)
	if got, max := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(2*len(want)); got > max {
		t.Errorf("%d bytes allocated for %d bytes of output, want at most %d", got, len(want), max)
	}
	_ = sink
}

// TestWriterMatchesSerialize: the streaming Writer and Serialize share one
// rendering path, escapes and attributes included.
func TestWriterMatchesSerialize(t *testing.T) {
	events := []Event{
		{Kind: StartDocument},
		{Kind: StartElement, Name: "a", Attrs: []Attr{{Name: "k", Value: `x<"&>`}, {Name: "e", Value: ""}}},
		Chars("1 < 2 && 3 > 2"),
		Start("b"), End("b"),
		Chars(strings.Repeat("long text ", 5000)), // larger than the Writer's buffer
		End("a"),
		{Kind: EndDocument},
	}
	var sb strings.Builder
	w := NewWriter(&sb)
	for _, ev := range events {
		if err := w.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got := Serialize(events)
	if sb.String() != got {
		t.Fatalf("Writer and Serialize disagree:\n%.80q\n%.80q", sb.String(), got)
	}
	if !strings.HasPrefix(got, `<a k="x&lt;&quot;&amp;>" e="">1 &lt; 2 &amp;&amp; 3 &gt; 2<b></b>long text `) {
		t.Fatalf("rendering: %.90q", got)
	}
	if Serialize(nil) != "" || Serialize(events[:1]) != "" {
		t.Fatal("no text expected for an empty answer")
	}
}
