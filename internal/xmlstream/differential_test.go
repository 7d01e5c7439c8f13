package xmlstream_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/xmlstream"
)

// The differential scanner harness: every corpus document is replayed
// through the reference (byte-at-a-time) engine of seed_test.go and through
// the Scanner at every reader chunk size 1..64 and over caller-owned bytes.
// The Scanner must be byte-for-byte indistinguishable from the reference:
// identical event sequences (including interned symbols), identical
// per-event InputOffset accounting, identical error classes (ErrTruncated,
// ErrTokenTooLarge, ErrTooDeep, ErrDuplicateAttr) and identical ErrorOffset
// values. This file is the contract the engine ships under; see DESIGN.md
// §15.

// diffDoc is one corpus entry.
type diffDoc struct {
	name string
	data []byte
	opts []xmlstream.ScannerOption
}

// handwrittenCorpus covers syntax and error-fidelity edges: every construct
// kind, every error class, and the scanner's documented quirks (whitespace
// before the '>' of a self-closing tag, entity pass-through, CDATA text
// coalescing, prolog/epilog skipping).
func handwrittenCorpus() []diffDoc {
	tiny := xmlstream.WithLimits(xmlstream.Limits{MaxTokenBytes: 8})
	shallow := xmlstream.WithLimits(xmlstream.Limits{MaxDepth: 3})
	docs := []diffDoc{
		{name: "fig1", data: []byte(`<a><a><c/></a><b/><c/></a>`)},
		{name: "prolog", data: []byte(`<?xml version="1.0"?><r a="1">t<!--c--><x/><![CDATA[<raw>]]></r>`)},
		{name: "entities", data: []byte(`<a>&lt;&amp;&unknown;&gt;x&apos;&quot;&bad</a>`)},
		{name: "doctype", data: []byte(`<!DOCTYPE r [<!ELEMENT r ANY>]><r/>`)},
		{name: "attrs", data: []byte(`<r><a k="1" l='&amp;"'/><a k="&#60;x"/><a verylongvaluehere="0123456789012345678901234567890123456789"/></r>`)},
		{name: "selfclose-space", data: []byte(`<r><a/ ><b x="1"/ ></r>`)},
		{name: "mixed-text", data: []byte("<r>alpha<b>beta</b>  \n\tgamma<b/>delta</r>")},
		{name: "cdata-edges", data: []byte(`<r><![CDATA[]]><![CDATA[]]]]><![CDATA[a]b]]></r>`)},
		{name: "comments", data: []byte(`<!--before--><r><!--- -- inner ---></r><!--after-->`)},
		{name: "pis", data: []byte(`<?pre?><r><?mid a?b??></r><?post?>`)},
		{name: "epilog-ws", data: []byte("  <r/>  \n ")},
		{name: "unicode", data: []byte("<élément attrü=\"väl\">têxt</élément>")},

		// Malformed: every error class, at varied positions.
		{name: "empty", data: []byte(``)},
		{name: "text-only", data: []byte(`plain text`)},
		{name: "truncated-tag", data: []byte(`<r><a`)},
		{name: "truncated-name", data: []byte(`<r><abc`)},
		{name: "truncated-attr", data: []byte(`<r><a k="v`)},
		{name: "truncated-attr-eq", data: []byte(`<r><a k=`)},
		{name: "truncated-comment", data: []byte(`<r><!-- never ends`)},
		{name: "truncated-cdata", data: []byte(`<r><![CDATA[ never ends`)},
		{name: "truncated-pi", data: []byte(`<r><?pi never ends`)},
		{name: "truncated-doctype", data: []byte(`<!DOCTYPE r [ <!ELEMENT`)},
		{name: "truncated-lt", data: []byte(`<r>text<`)},
		{name: "truncated-endtag", data: []byte(`<r></r`)},
		{name: "unclosed", data: []byte(`<r><a><b></b>`)},
		{name: "mismatch", data: []byte(`<r><a></b></a></r>`)},
		{name: "stray-end", data: []byte(`</a>`)},
		{name: "after-root", data: []byte(`<r></r><x/>`)},
		{name: "after-root-text-tag", data: []byte(`<r/>junk<x/>`)},
		{name: "double-root-self", data: []byte(`<a/><b/>`)},
		{name: "bad-name-start", data: []byte(`<r><1bad/></r>`)},
		{name: "bad-name-byte", data: []byte(`<r><a$></a$></r>`)},
		{name: "bad-endtag-byte", data: []byte(`<r></r$>`)},
		{name: "endtag-space-junk", data: []byte(`<r></r x>`)},
		{name: "unquoted-value", data: []byte(`<r><a k=1/></r>`)},
		{name: "raw-lt-in-value", data: []byte(`<r><a k="a<b"/></r>`)},
		{name: "dup-attr", data: []byte(`<r><a k="1" k="2"/></r>`), opts: nil},
		{name: "attr-no-eq", data: []byte(`<r><a k "1"/></r>`)},
		{name: "nul-byte", data: []byte("<\x00>")},
		{name: "high-bytes", data: []byte("<a>\xff\xfe</a>")},

		// Limit errors: token and depth caps far below the defaults.
		{name: "limit-text", data: []byte(`<r>0123456789abcdef</r>`), opts: []xmlstream.ScannerOption{tiny}},
		{name: "limit-tagname", data: []byte(`<r><averylongtagname/></r>`), opts: []xmlstream.ScannerOption{tiny}},
		{name: "limit-endtag", data: []byte(`<rootelementname>x</rootelementname>`), opts: []xmlstream.ScannerOption{tiny}},
		{name: "limit-attrname", data: []byte(`<r><a longattributename="v"/></r>`), opts: []xmlstream.ScannerOption{tiny}},
		{name: "limit-attrvalue", data: []byte(`<r><a k="long attribute value"/></r>`), opts: []xmlstream.ScannerOption{tiny}},
		{name: "limit-cdata", data: []byte(`<r><![CDATA[far too much content]]></r>`), opts: []xmlstream.ScannerOption{tiny}},
		{name: "limit-depth", data: []byte(`<a><b><c><d><e/></d></c></b></a>`), opts: []xmlstream.ScannerOption{shallow}},
		{name: "limit-depth-ok", data: []byte(`<a><b><c/></b><b/></a>`), opts: []xmlstream.ScannerOption{shallow}},
	}
	// The same syntax edges with attribute tokenization off (the paper's
	// model): the skip path has its own self-close detection.
	noattr := xmlstream.WithAttributes(false)
	for _, d := range []diffDoc{
		{name: "noattr-fig1", data: []byte(`<a><a k="1"><c x='y'/></a><b/><c/></a>`)},
		{name: "noattr-selfclose-space", data: []byte(`<r><a/ ><b x="1"/ ><c x="/>"></c></r>`)},
		{name: "noattr-quoted-gt", data: []byte(`<r><a k="a>b"><x/></a></r>`)},
		{name: "noattr-truncated", data: []byte(`<r><a k="v`)},
	} {
		d.opts = append(d.opts, noattr)
		docs = append(docs, d)
	}
	// Structural-only scans (count mode) over mixed content.
	docs = append(docs, diffDoc{
		name: "notext",
		data: []byte(`<r>alpha<b>beta</b><![CDATA[x]]></r>`),
		opts: []xmlstream.ScannerOption{xmlstream.WithText(false)},
	})
	return docs
}

// generatedCorpus renders the spexgen document family small enough that the
// full chunk-size sweep stays fast: the paper's datasets, the ticket corpus
// (attribute-heavy), the adversarial shapes, and the synthetic trees.
func generatedCorpus() []diffDoc {
	gen := []struct {
		name string
		doc  *dataset.Doc
	}{
		{"mondial", dataset.Mondial(0.01)},
		{"wordnet", dataset.WordNet(0.005)},
		{"dmoz-structure", dataset.DMOZStructure(0.002)},
		{"dmoz-content", dataset.DMOZContent(0.001)},
		{"tickets", dataset.Tickets(0.01)},
		{"adversarial-deep", dataset.Deep(60)},
		{"adversarial-fanout", dataset.Fanout(200)},
		{"adversarial-fanout-late", dataset.FanoutLate(200)},
		{"adversarial-qualbomb", dataset.QualBomb(40)},
		{"adversarial-emptyrun", dataset.EmptyRun(300)},
		{"random-tree", dataset.RandomTreeText(7, 6, 4, []string{"a", "b", "c"}, []string{"", "x", "&lt;t&gt;"})},
		{"recursive", dataset.Recursive("a", 40)},
		{"ladder", dataset.Ladder(30)},
	}
	docs := make([]diffDoc, 0, len(gen))
	for _, g := range gen {
		docs = append(docs, diffDoc{name: g.name, data: g.doc.Bytes()})
	}
	return docs
}

// fuzzSeedCorpus loads any checked-in go-fuzz corpus files for FuzzScanner,
// so crashers found by the fuzzer become permanent differential fixtures.
func fuzzSeedCorpus(t *testing.T) []diffDoc {
	var docs []diffDoc
	dir := filepath.Join("testdata", "fuzz", "FuzzScanner")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading fuzz corpus %s: %v", e.Name(), err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "string(") {
				continue
			}
			if s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")")); err == nil {
				docs = append(docs, diffDoc{name: "fuzz-" + e.Name(), data: []byte(s)})
			}
		}
	}
	return docs
}

func diffCorpus(t *testing.T) []diffDoc {
	docs := handwrittenCorpus()
	docs = append(docs, generatedCorpus()...)
	docs = append(docs, fuzzSeedCorpus(t)...)
	return docs
}

// chunkReader delivers at most n bytes per Read, exercising every buffer
// refill boundary in the scanner.
type chunkReader struct {
	data []byte
	n    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := r.n
	if n > len(r.data) {
		n = len(r.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// scanSource is the accounting surface shared by the Scanner and the
// reference engine.
type scanSource interface {
	Next() (xmlstream.Event, error)
	InputOffset() int64
	ErrorOffset() int64
	Events() int64
	MaxDepth() int
}

// scanOutcome captures everything the harness compares.
type scanOutcome struct {
	events   []xmlstream.Event
	offs     []int64 // InputOffset after each event
	err      error
	errOff   int64
	total    int64 // Events() at the end
	maxDepth int
}

func runScan(src scanSource) scanOutcome {
	var r scanOutcome
	for {
		ev, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			r.err = err
			r.errOff = src.ErrorOffset()
			break
		}
		r.events = append(r.events, ev.Clone()) // a reader-path event dies at the next Next
		r.offs = append(r.offs, src.InputOffset())
	}
	r.total = src.Events()
	r.maxDepth = src.MaxDepth()
	return r
}

// scanSentinels are the error classes whose fidelity the harness enforces.
var scanSentinels = []struct {
	name string
	err  error
}{
	{"ErrTruncated", xmlstream.ErrTruncated},
	{"ErrTokenTooLarge", xmlstream.ErrTokenTooLarge},
	{"ErrTooDeep", xmlstream.ErrTooDeep},
	{"ErrDuplicateAttr", xmlstream.ErrDuplicateAttr},
}

func errClass(err error) string {
	if err == nil {
		return "<nil>"
	}
	for _, s := range scanSentinels {
		if errors.Is(err, s.err) {
			return s.name
		}
	}
	return "malformed"
}

func sameAttrs(a, b []xmlstream.Attr, ignoreSym bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Value != b[i].Value {
			return false
		}
		if !ignoreSym && a[i].Sym != b[i].Sym {
			return false
		}
	}
	return true
}

func diffEvents(want, got scanOutcome, ignoreSym bool) string {
	n := len(want.events)
	if len(got.events) < n {
		n = len(got.events)
	}
	for i := 0; i < n; i++ {
		a, b := want.events[i], got.events[i]
		switch {
		case a.Kind != b.Kind, a.Name != b.Name, a.Data != b.Data,
			!sameAttrs(a.Attrs, b.Attrs, ignoreSym),
			!ignoreSym && a.Sym != b.Sym:
			return fmt.Sprintf("event %d: want %v (sym %d), got %v (sym %d)", i, a, a.Sym, b, b.Sym)
		}
		if want.offs[i] != got.offs[i] {
			return fmt.Sprintf("event %d (%v): InputOffset %d, want %d", i, a, got.offs[i], want.offs[i])
		}
	}
	if len(want.events) != len(got.events) {
		return fmt.Sprintf("event count %d, want %d", len(got.events), len(want.events))
	}
	return ""
}

// compareSerial holds the fast engine to the full contract: identical
// events, symbols, offsets, error class and error offset.
func compareSerial(t *testing.T, label string, want, got scanOutcome) {
	t.Helper()
	if d := diffEvents(want, got, false); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
	compareErr(t, label, want, got)
}

// compareErr holds got to want's error class, error offset and accounting.
func compareErr(t *testing.T, label string, want, got scanOutcome) {
	t.Helper()
	if errClass(want.err) != errClass(got.err) {
		t.Fatalf("%s: error class %s (%v), want %s (%v)", label, errClass(got.err), got.err, errClass(want.err), want.err)
	}
	if want.err != nil && want.errOff != got.errOff {
		t.Fatalf("%s: ErrorOffset %d, want %d (err %v)", label, got.errOff, want.errOff, want.err)
	}
	if want.total != got.total || want.maxDepth != got.maxDepth {
		t.Fatalf("%s: accounting Events/MaxDepth %d/%d, want %d/%d",
			label, got.total, got.maxDepth, want.total, want.maxDepth)
	}
}

// chunkSizes is the reader-granularity sweep: every size 1..64.
func chunkSizes() []int {
	sizes := make([]int, 64)
	for i := range sizes {
		sizes[i] = i + 1
	}
	return sizes
}

// TestDifferentialSerial replays the corpus through seed vs zero-copy at
// every chunk size 1..64 plus the in-memory (ScanBytes) path.
func TestDifferentialSerial(t *testing.T) {
	for _, d := range diffCorpus(t) {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			ref := runScan(xmlstream.NewSeedScanner(bytes.NewReader(d.data), freshOpts(d.opts)...))
			// The reference engine must itself be chunk-size invariant (it is
			// the oracle); spot-check a few granularities.
			for _, n := range []int{1, 7, 64} {
				got := runScan(xmlstream.NewSeedScanner(&chunkReader{data: d.data, n: n}, freshOpts(d.opts)...))
				compareSerial(t, fmt.Sprintf("seed chunk=%d", n), ref, got)
			}
			for _, n := range chunkSizes() {
				got := runScan(xmlstream.NewScanner(&chunkReader{data: d.data, n: n}, freshOpts(d.opts)...))
				compareSerial(t, fmt.Sprintf("fast chunk=%d", n), ref, got)
			}
			got := runScan(xmlstream.ScanBytes(d.data, freshOpts(d.opts)...))
			compareSerial(t, "fast bytes", ref, got)
		})
	}
}

// TestDifferentialParallel replays the corpus through concurrent scanners
// that share one Symtab, as concurrent evaluations of one compiled query do:
// four at once per document, each at its own reader chunk size or over the
// bytes. Each is held to the reference's serial contract except for the
// numbering of symbols, which the shared table assigns in whatever order the
// scanners first reach a label; every symbol must instead name its own label
// in the shared table.
func TestDifferentialParallel(t *testing.T) {
	for _, d := range diffCorpus(t) {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			ref := runScan(xmlstream.NewSeedScanner(bytes.NewReader(d.data), freshOpts(d.opts)...))
			shared := xmlstream.NewSymtab()
			opts := append(append([]xmlstream.ScannerOption{}, d.opts...), xmlstream.WithSymtab(shared))
			srcs := []scanSource{
				xmlstream.ScanBytes(d.data, opts...),
				xmlstream.NewScanner(&chunkReader{data: d.data, n: 1}, opts...),
				xmlstream.NewScanner(&chunkReader{data: d.data, n: 13}, opts...),
				xmlstream.NewScanner(bytes.NewReader(d.data), opts...),
			}
			outs := make([]scanOutcome, len(srcs))
			var wg sync.WaitGroup
			for i, src := range srcs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					outs[i] = runScan(src)
				}()
			}
			wg.Wait()
			for i, got := range outs {
				label := fmt.Sprintf("concurrent scanner %d", i)
				for k, ev := range got.events {
					for _, sym := range eventSyms(ev) {
						if got := shared.Name(sym.sym); got != sym.name {
							t.Fatalf("%s: event %d (%v): symbol %d names %q in the shared table", label, k, ev, sym.sym, got)
						}
					}
				}
				if d := diffEvents(ref, got, true); d != "" {
					t.Fatalf("%s: %s", label, d)
				}
				compareErr(t, label, ref, got)
			}
		})
	}
}

// namedSym is one symbol an event carries and the label it stands for.
type namedSym struct {
	sym  xmlstream.Sym
	name string
}

// eventSyms lists the symbols of an element event and of its attributes.
func eventSyms(ev xmlstream.Event) []namedSym {
	if ev.Kind != xmlstream.StartElement && ev.Kind != xmlstream.EndElement {
		return nil
	}
	out := []namedSym{{ev.Sym, ev.Name}}
	for _, a := range ev.Attrs {
		out = append(out, namedSym{a.Sym, a.Name})
	}
	return out
}

// freshOpts appends a fresh symtab to the document options.
func freshOpts(opts []xmlstream.ScannerOption) []xmlstream.ScannerOption {
	out := append([]xmlstream.ScannerOption{}, opts...)
	return append(out, xmlstream.WithSymtab(xmlstream.NewSymtab()))
}
