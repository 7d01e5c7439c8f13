package xmlstream_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/xmlstream"
)

// longDoc is a document with one construct longer than (or as long as) the
// scanner's 64 KiB read window, and the offsets to cut it at: inside the
// construct's name, inside an attribute value, just before its '>'.
type longDoc struct {
	name string
	data []byte
	cuts []int
	opts []xmlstream.ScannerOption
}

// attrTag builds <r><a k0="…" k1="…" …>x</a></r> with attributes of about
// 1 KiB each totalling about total bytes.
func attrTag(name string, total int) longDoc {
	var b bytes.Buffer
	b.WriteString("<r><a")
	start := 3
	val := strings.Repeat("v", 1000)
	for i := 0; b.Len()-start < total; i++ {
		fmt.Fprintf(&b, " k%d=\"%s&amp;\"", i, val)
	}
	mid := bytes.Index(b.Bytes()[start+total/2:], []byte(`="`)) + start + total/2 + 40
	end := b.Len()
	b.WriteString(">x</a></r>")
	return longDoc{name: name, data: b.Bytes(), cuts: []int{start + 2, start + total/3, mid, end - 1, end, end + 1}}
}

// longName builds <r><NNNN…/></r> with an element name of n bytes.
func longName(name string, n int) longDoc {
	doc := "<r><" + strings.Repeat("n", n) + "/></r>"
	return longDoc{name: name, data: []byte(doc), cuts: []int{4 + n/2, 4 + n, 4 + n + 1}}
}

// TestLongConstructsAcrossWindow holds the Scanner to the reference engine
// on tags the read window cannot hold: start tags whose attributes total
// 70 KiB and 200 KiB, an end tag padded with 70 KiB of whitespace, and tag
// names around MaxTokenBytes (set above the window) and far over it. Each
// document also runs cut short inside the construct. Every variant is read
// in 16 B, 4 KiB and 64 KiB chunks and from bytes; events, offsets, error
// class, the limit's What and ErrorOffset must all agree.
func TestLongConstructsAcrossWindow(t *testing.T) {
	const maxTok = 96 << 10
	limit := xmlstream.WithLimits(xmlstream.Limits{MaxTokenBytes: maxTok})
	endPad := "<r><a>x</a" + strings.Repeat(" \n", 35<<10) + "></r>"
	docs := []longDoc{
		attrTag("attrs-70k", 70<<10),
		attrTag("attrs-200k", 200<<10),
		{name: "endtag-ws-70k", data: []byte(endPad), cuts: []int{9, 9 + 35<<10, len(endPad) - 5}},
	}
	noattr := attrTag("attrs-200k-skipped", 200<<10)
	noattr.opts = []xmlstream.ScannerOption{xmlstream.WithAttributes(false)}
	docs = append(docs, noattr)
	for _, d := range []longDoc{
		longName("name-under-limit", maxTok-1), longName("name-at-limit", maxTok), longName("name-over-limit", maxTok+1),
		// Longer than the window may grow: the name's own limit must trip
		// first, on a full window, not the tag's.
		longName("name-far-over-limit", 3*maxTok),
	} {
		d.opts = []xmlstream.ScannerOption{limit}
		docs = append(docs, d)
	}
	docs = append(docs, longDoc{
		name: "value-over-limit",
		data: []byte(`<r><a k="` + strings.Repeat("v", maxTok+1) + `"/></r>`),
		cuts: []int{9 + maxTok/2, 9 + maxTok + 1},
		opts: []xmlstream.ScannerOption{limit},
	})

	for _, d := range docs {
		for _, cut := range append(d.cuts, len(d.data)) {
			data := d.data[:cut]
			label := fmt.Sprintf("%s cut %d/%d", d.name, cut, len(d.data))
			want := runScan(xmlstream.NewSeedScanner(bytes.NewReader(data), freshOpts(d.opts)...))
			for _, n := range []int{16, 4 << 10, 64 << 10} {
				sc := xmlstream.NewScanner(&chunkReader{data: data, n: n}, freshOpts(d.opts)...)
				got := runScan(sc)
				compareSerial(t, fmt.Sprintf("%s chunk=%d", label, n), want, got)
				sameLimit(t, label, want.err, got.err)
			}
			got := runScan(xmlstream.ScanBytes(data, freshOpts(d.opts)...))
			compareSerial(t, label+" bytes", want, got)
			sameLimit(t, label, want.err, got.err)
		}
	}
}

// sameLimit requires two limit errors to name the same construct.
func sameLimit(t *testing.T, label string, want, got error) {
	t.Helper()
	var w, g *xmlstream.ScanLimitError
	if errors.As(want, &w) != errors.As(got, &g) || (w != nil && w.What != g.What) {
		t.Fatalf("%s: limit error %v, want %v", label, got, want)
	}
}

// TestTagLongerThanTwiceTheTokenLimit pins the one place the Scanner parts
// from the reference engine: the window holds a tag whole and grows to at
// most twice MaxTokenBytes, so a tag longer than that — whitespace or
// skipped attribute text, which the reference engine drops as it reads — is
// an oversized token at the tag's '<' instead of unbounded memory. Reset
// gives the grown window back.
func TestTagLongerThanTwiceTheTokenLimit(t *testing.T) {
	const maxTok = 40 << 10
	for _, doc := range []string{
		"<r>t<a" + strings.Repeat(" ", 3*maxTok) + "/></r>",
		"<r>t</r" + strings.Repeat(" ", 3*maxTok) + ">",
	} {
		for _, attrs := range []bool{true, false} {
			sc := xmlstream.NewScanner(&chunkReader{data: []byte(doc), n: 4 << 10},
				xmlstream.WithLimits(xmlstream.Limits{MaxTokenBytes: maxTok}), xmlstream.WithAttributes(attrs))
			_, err := xmlstream.Collect(sc)
			var le *xmlstream.ScanLimitError
			if !errors.As(err, &le) || !errors.Is(err, xmlstream.ErrTokenTooLarge) || !strings.HasSuffix(le.What, " tag") {
				t.Fatalf("%.10q… attrs=%v: err %v, want a tag over the token limit", doc, attrs, err)
			}
			if sc.ErrorOffset() != 4 {
				t.Fatalf("%.10q… attrs=%v: ErrorOffset %d, want 4", doc, attrs, sc.ErrorOffset())
			}
			if st := sc.IngestStats(); st.BufferBytes > 2*maxTok {
				t.Fatalf("%.10q… attrs=%v: window grew to %d bytes, want at most %d", doc, attrs, st.BufferBytes, 2*maxTok)
			}
			// Reset gives the grown window back.
			sc.Reset(strings.NewReader("<r/>"))
			if st := sc.IngestStats(); st.BufferBytes != 64<<10 {
				t.Fatalf("window after Reset: %d bytes, want 64 KiB", st.BufferBytes)
			}
		}
	}
}

// drainRate drains a fresh source from mk and returns its events per second.
func drainRate(t testing.TB, mk func() xmlstream.Source) float64 {
	src := mk()
	start := time.Now()
	n := 0
	for {
		_, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	return float64(n) / time.Since(start).Seconds()
}

// TestEngineOutpacesOracle is the scanner's speed gate: with text and
// attributes on, the Scanner over bytes must deliver at least twice the
// reference engine's event rate on the DMOZ structure and content dumps.
// The two alternate over five rounds and each keeps its best round, which
// damps scheduler noise the way testing.B's minimum does.
func TestEngineOutpacesOracle(t *testing.T) {
	if raceEnabled {
		t.Skip("timing gate: the race detector's instrumentation is not the engine's cost")
	}
	for name, doc := range map[string]*dataset.Doc{
		"dmoz-structure": dataset.DMOZStructure(0.05),
		"dmoz-content":   dataset.DMOZContent(0.05),
	} {
		data := doc.Bytes()
		var engine, oracle float64
		for round := 0; round < 5; round++ {
			oracle = max(oracle, drainRate(t, func() xmlstream.Source {
				return xmlstream.NewSeedScanner(bytes.NewReader(data))
			}))
			engine = max(engine, drainRate(t, func() xmlstream.Source { return xmlstream.ScanBytes(data) }))
		}
		t.Logf("%s: %.1f Mevents/s, reference %.1f Mevents/s (%.2fx)", name, engine/1e6, oracle/1e6, engine/oracle)
		if engine < 2*oracle {
			t.Errorf("%s: the Scanner reaches %.2fx the reference engine's event rate, want at least 2x", name, engine/oracle)
		}
	}
}

// BenchmarkScannerAblation drains the Mondial document, text and attributes
// on, through the Scanner (over bytes and over a reader), the reference
// engine and encoding/xml (through the Decoder adapter).
func BenchmarkScannerAblation(b *testing.B) {
	data := dataset.Mondial(1).Bytes()
	for _, arm := range []struct {
		name string
		mk   func() xmlstream.Source
	}{
		{"scanner-bytes", func() xmlstream.Source { return xmlstream.ScanBytes(data) }},
		{"scanner-reader", func() xmlstream.Source { return xmlstream.NewScanner(bytes.NewReader(data)) }},
		{"reference", func() xmlstream.Source { return xmlstream.NewSeedScanner(bytes.NewReader(data)) }},
		{"encoding-xml", func() xmlstream.Source { return xmlstream.NewDecoder(bytes.NewReader(data)) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			var info xmlstream.Info
			for i := 0; i < b.N; i++ {
				var err error
				if info, err = xmlstream.Measure(arm.mk()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(info.Events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
