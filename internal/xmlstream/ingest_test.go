package xmlstream_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/xmlstream"
)

// TestIngestZeroAlloc is the ingest-path CI gate, the scanner-level sibling
// of TestCountModeZeroAlloc: once the scanner is warm, rescanning a document
// performs zero heap allocations per event, in every configuration — the
// count-mode structural scan (the paper's model), the full-fidelity scan
// with text and attributes (window views, arena-backed attribute lists), and
// the in-memory ScanBytes path. Over a reader the arenas are rewound every
// time the pending ring drains, so this holds for a document of any size;
// over caller-owned bytes Reset rewinds them and it holds while the document's
// carvings fit the arena chain. Steady-state ingest cost is pure CPU; a
// regression that re-introduces per-event allocation fails go test ./..., not
// just bench review.
func TestIngestZeroAlloc(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		opts []xmlstream.ScannerOption
		// readerOnly: the document carves more attribute lists than the arena
		// chain keeps, which only the reader path's rewinding makes free.
		readerOnly bool
	}{
		// The acceptance workload: DMOZ structure in count mode.
		{"dmoz-count", dataset.DMOZStructure(0.01).Bytes(), []xmlstream.ScannerOption{
			xmlstream.WithText(false), xmlstream.WithAttributes(false)}, false},
		// Text-heavy content with full text fidelity (entity-decoded runs).
		{"dmoz-content-text", dataset.DMOZContent(0.003).Bytes(), nil, false},
		// Attribute-heavy corpus (attr arena).
		{"tickets-attrs", dataset.Tickets(0.01).Bytes(), nil, false},
		// 10 000 items, about 13 000 attribute entries: several times what
		// the arenas ever kept for reuse (17 blocks of 512).
		{"tickets-attrs-large", dataset.Tickets(5).Bytes(), nil, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]xmlstream.ScannerOption{xmlstream.WithSymtab(xmlstream.NewSymtab())}, tc.opts...)

			rd := bytes.NewReader(tc.data)
			sc := xmlstream.NewScanner(rd, opts...)
			drain := func() {
				rd.Reset(tc.data)
				sc.Reset(rd)
				for {
					if _, err := sc.Next(); err != nil {
						if err == io.EOF {
							return
						}
						t.Fatal(err)
					}
				}
			}
			drain() // warm: grow buffers, arenas, interner to steady state
			if allocs := testing.AllocsPerRun(5, drain); allocs != 0 {
				t.Errorf("buffered scan steady state allocates: %.1f allocs per document, want 0", allocs)
			}
			if tc.readerOnly {
				return
			}

			sb := xmlstream.ScanBytes(tc.data, opts...)
			drainBytes := func() {
				sb.ResetBytes(tc.data)
				for {
					if _, err := sb.Next(); err != nil {
						if err == io.EOF {
							return
						}
						t.Fatal(err)
					}
				}
			}
			drainBytes()
			if allocs := testing.AllocsPerRun(5, drainBytes); allocs != 0 {
				t.Errorf("ScanBytes steady state allocates: %.1f allocs per document, want 0", allocs)
			}
			if sc.Events() == 0 || sb.Events() == 0 {
				t.Fatal("zero-alloc run saw no events; workload broken")
			}
		})
	}
}

// TestScannerAccountingParity pins the offset accounting to ground truth on
// a document small enough to audit by hand, in every mode (the satellite-4
// regression: the counters must not assume the byte-at-a-time path). The
// differential harness then extends the parity claim to the whole corpus.
func TestScannerAccountingParity(t *testing.T) {
	doc := []byte(`<r>ab<c/></r>`)
	//             0123456789012
	wantOffs := []int64{0, 3, 5, 9, 9, 13, 13} // per-event InputOffset
	wantKinds := []xmlstream.Kind{
		xmlstream.StartDocument, xmlstream.StartElement, xmlstream.Text,
		xmlstream.StartElement, xmlstream.EndElement, xmlstream.EndElement,
		xmlstream.EndDocument,
	}
	check := func(name string, src scanSource) {
		t.Helper()
		out := runScan(src)
		if out.err != nil {
			t.Fatalf("%s: %v", name, out.err)
		}
		if len(out.events) != len(wantOffs) {
			t.Fatalf("%s: %d events, want %d", name, len(out.events), len(wantOffs))
		}
		for i := range out.events {
			if out.events[i].Kind != wantKinds[i] {
				t.Fatalf("%s: event %d kind %v, want %v", name, i, out.events[i].Kind, wantKinds[i])
			}
			if out.offs[i] != wantOffs[i] {
				t.Fatalf("%s: event %d InputOffset %d, want %d", name, i, out.offs[i], wantOffs[i])
			}
		}
		if out.total != int64(len(wantOffs)) || out.maxDepth != 2 {
			t.Fatalf("%s: Events/MaxDepth %d/%d, want %d/2", name, out.total, out.maxDepth, len(wantOffs))
		}
	}
	check("seed", xmlstream.NewScanner(bytes.NewReader(doc), xmlstream.WithSeedScan(true)))
	check("fast", xmlstream.NewScanner(bytes.NewReader(doc)))
	check("fast-chunk1", xmlstream.NewScanner(&chunkReader{data: doc, n: 1}))
	check("bytes", xmlstream.ScanBytes(doc))
	check("parallel", xmlstream.NewParallelScannerAt(doc, []int{5, 9}))

	// Error offsets: the construct start, identically in every mode.
	bad := []byte(`<r>xx<a k="1" k="2"/></r>`)
	//             0123456789...   construct starts at offset 5
	for name, src := range map[string]scanSource{
		"seed":     xmlstream.NewScanner(bytes.NewReader(bad), xmlstream.WithSeedScan(true)),
		"fast":     xmlstream.NewScanner(bytes.NewReader(bad)),
		"bytes":    xmlstream.ScanBytes(bad),
		"parallel": xmlstream.NewParallelScannerAt(bad, []int{5}),
	} {
		out := runScan(src)
		if out.err == nil {
			t.Fatalf("%s: duplicate attribute accepted", name)
		}
		if out.errOff != 5 {
			t.Fatalf("%s: ErrorOffset %d, want 5 (err %v)", name, out.errOff, out.err)
		}
	}
}

// TestIngestStats sanity-checks the arena accounting surfaced to obs: an
// entity-free document is served as views of the window on both paths and
// leaves the text arena empty — through a reader as from caller-owned bytes,
// window edges included (the zero-copy claim, pinned here) — while attribute
// lists are carved and counted, entity-decoded payload is counted byte for
// byte, and the parallel scanner reports its chunk count.
func TestIngestStats(t *testing.T) {
	data := dataset.Tickets(0.2).Bytes() // several windows long
	if len(data) < 2<<16 {
		t.Fatalf("document of %d bytes does not cross a window edge", len(data))
	}
	sc := xmlstream.NewScanner(bytes.NewReader(data))
	if _, err := xmlstream.Collect(sc); err != nil {
		t.Fatal(err)
	}
	st := sc.IngestStats()
	if st.ArenaBytes != 0 {
		t.Fatalf("reader scan copied entity-free payload out of the window: %+v", st)
	}
	if st.ArenaBlocks == 0 || st.ArenaAttrs == 0 {
		t.Fatalf("buffered arena accounting empty: %+v", st)
	}
	if st.Chunks != 1 {
		t.Fatalf("buffered scanner Chunks = %d, want 1", st.Chunks)
	}
	// "a&amp;b" decodes to 3 bytes, "&lt;" to 1, the CDATA section is 2 as is.
	ent := []byte(`<r k="a&amp;b" l="plain">&lt;<![CDATA[xy]]>plain</r>`)
	for name, src := range map[string]*xmlstream.Scanner{
		"reader": xmlstream.NewScanner(bytes.NewReader(ent)),
		"bytes":  xmlstream.ScanBytes(ent),
	} {
		if _, err := xmlstream.Collect(src); err != nil {
			t.Fatal(err)
		}
		if got := src.IngestStats().ArenaBytes; got != 6 {
			t.Fatalf("%s: ArenaBytes = %d, want 6 (the decoded and CDATA bytes only)", name, got)
		}
	}

	sb := xmlstream.ScanBytes(data)
	if _, err := xmlstream.Collect(sb); err != nil {
		t.Fatal(err)
	}
	bst := sb.IngestStats()
	if bst.ArenaBytes != 0 {
		t.Fatalf("stable scan copied payloads into the text arena: %+v", bst)
	}
	if bst.ArenaAttrs == 0 {
		t.Fatalf("stable scan attr-arena accounting empty: %+v", bst)
	}

	ps := xmlstream.NewParallelScannerAt(data, []int{len(data) / 3, 2 * len(data) / 3})
	out := runScan(ps)
	if out.err != nil {
		t.Fatal(out.err)
	}
	pst := ps.IngestStats()
	if pst.Chunks < 2 {
		t.Fatalf("parallel scanner Chunks = %d, want >= 2", pst.Chunks)
	}
	if pst.ArenaAttrs == 0 {
		t.Fatalf("parallel attr-arena accounting empty: %+v", pst)
	}
}

// TestOpenFile exercises the mmap fast path end to end: a file-backed
// document scans to the same events as its in-memory bytes.
func TestOpenFile(t *testing.T) {
	data := dataset.Mondial(0.01).Bytes()
	path := t.TempDir() + "/doc.xml"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	doc, err := xmlstream.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer doc.Close()
	if doc.Len() != len(data) {
		t.Fatalf("OpenFile length %d, want %d", doc.Len(), len(data))
	}
	want := runScan(xmlstream.NewScanner(bytes.NewReader(data), seedOpts(nil)...))
	got := runScan(xmlstream.ScanBytes(doc.Data(), freshOpts(nil)...))
	compareSerial(t, "mmap", want, got)
	pgot := runScan(xmlstream.NewParallelScanner(doc.Data(), 4, freshOpts(nil)...))
	compareParallel(t, "mmap-parallel", want, pgot)
}

// itemStream generates <items> followed by n ticket records with distinct ids
// — the input that used to grow the attribute-value cache by one entry per
// record — without ever holding the document.
type itemStream struct {
	n, next int
	buf     []byte
}

func (s *itemStream) Read(p []byte) (int, error) {
	for len(s.buf) == 0 {
		switch {
		case s.next > s.n:
			return 0, io.EOF
		case s.next == s.n:
			s.buf = append(s.buf, "</items>"...)
		default:
			if s.next == 0 {
				s.buf = append(s.buf, "<items>"...)
			}
			s.buf = fmt.Appendf(s.buf, `<item id="t%d" status="open"><summary>quota &amp; volume %d</summary><state>open</state></item>`, s.next, s.next%7)
		}
		s.next++
	}
	n := copy(p, s.buf)
	s.buf = s.buf[:copy(s.buf, s.buf[n:])]
	return n, nil
}

// heapNow is the live heap after two collections (the second empties what the
// first moved to the sync.Pool victim caches).
func heapNow() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestScannerFlatOnDistinctValues: a stream whose every element carries a
// distinct attribute value must not grow the scanner. The short-value cache
// that both engines kept in the name map gained one entry per id="t<i>" for
// as long as the stream ran; now the name map holds the label vocabulary and
// the live heap at 10 %, 50 % and 90 % of 200 000 records agrees within 5 %.
func TestScannerFlatOnDistinctValues(t *testing.T) {
	const items, events = 200000, 4 + 200000*8
	for _, seed := range []bool{false, true} {
		var heap []uint64
		// No Symtab: names go to the scanner's own map.
		sc := xmlstream.NewScanner(&itemStream{n: items}, xmlstream.WithSeedScan(seed))
		for {
			if _, err := sc.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if n := sc.Events(); n == events/10 || n == events/2 || n == events/10*9 {
				heap = append(heap, heapNow())
			}
		}
		if sc.Events() != events || len(heap) != 3 {
			t.Fatalf("seed=%v: %d events, %d probes", seed, sc.Events(), len(heap))
		}
		// items, item, summary, state and the attribute names id, status.
		if got := sc.NameCacheLen(); got != 6 {
			t.Errorf("seed=%v: name map holds %d entries after %d distinct ids, want the 6 labels", seed, got, items)
		}
		lo, hi := min(heap[0], heap[1], heap[2]), max(heap[0], heap[1], heap[2])
		if float64(hi) > 1.05*float64(lo) {
			t.Errorf("seed=%v: live heap at 10/50/90 %% of the stream: %d %d %d bytes, want within 5 %%", seed, heap[0], heap[1], heap[2])
		}
	}
}
