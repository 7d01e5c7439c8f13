package main

import (
	"math/rand"
	"strconv"

	"repro/internal/bench"
)

// record is one top-level record of a generated document: a feed entry, a
// DMOZ Topic or a ticket item. Records are the unit the chunk readers align
// to, so an answer and everything that decides it travel in one chunk.
type record struct {
	start, end int   // byte range of the whole record in document.data
	firstElem  int64 // document-order index of the record's own element
}

// document is one generated input with the tables the harness needs to place
// an answer index back into the byte stream.
type document struct {
	data     []byte
	recs     []record
	elements int64 // elements in the document, root included
	// tally is the generator's own list of the indexes the workload's query
	// selects, in document order: the second witness beside the DOM oracle.
	tally []int64
}

// builder writes a document and numbers its elements the way the engine
// does: the document node is 0, elements count from 1 by start tag.
type builder struct {
	rng   *rand.Rand
	buf   []byte
	recs  []record
	elem  int64
	tally []int64
	prose string
}

func newBuilder(seed int64, sizeHint int) *builder {
	b := &builder{rng: rand.New(rand.NewSource(seed)), buf: make([]byte, 0, sizeHint)}
	// A pool of filler words; text() cuts word-aligned slices out of it,
	// which is much cheaper than drawing every word.
	pool := make([]byte, 0, 1<<18)
	for len(pool) < 1<<18 {
		pool = append(pool, b.name()...)
		pool = append(pool, ' ')
	}
	b.prose = string(pool)
	return b
}

// name returns a short pronounceable identifier.
func (b *builder) name() string {
	const consonants, vowels = "bcdfgklmnprstv", "aeiou"
	n := 2 + b.rng.Intn(3)
	out := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		out = append(out, consonants[b.rng.Intn(len(consonants))], vowels[b.rng.Intn(len(vowels))])
	}
	return string(out)
}

// text returns about n bytes of filler prose, cut at word boundaries.
func (b *builder) text(n int) string {
	off := b.rng.Intn(len(b.prose) - n - 16)
	for b.prose[off] != ' ' {
		off++
	}
	end := off + n
	for b.prose[end] != ' ' {
		end++
	}
	return b.prose[off+1 : end]
}

func (b *builder) pick(choices ...string) string { return choices[b.rng.Intn(len(choices))] }

// deck deals the numbers 0..n-1 in seeded random order, reshuffling when it
// runs out. Generators draw each record's shape from a deck instead of
// rolling it, so every block of n records holds exactly the same mix and the
// answer counts — hence the work of a pass — do not vary with the seed.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func (b *builder) deck(n int) *deck {
	d := &deck{rng: b.rng, cards: make([]int, n), next: n}
	for i := range d.cards {
		d.cards[i] = i
	}
	return d
}

func (d *deck) draw() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// open writes a start tag with attribute name/value pairs (values must need
// no escaping) and returns the element's index.
func (b *builder) open(name string, attrs ...string) int64 {
	b.elem++
	b.buf = append(b.buf, '<')
	b.buf = append(b.buf, name...)
	for i := 0; i+1 < len(attrs); i += 2 {
		b.buf = append(b.buf, ' ')
		b.buf = append(b.buf, attrs[i]...)
		b.buf = append(b.buf, '=', '"')
		b.buf = append(b.buf, attrs[i+1]...)
		b.buf = append(b.buf, '"')
	}
	b.buf = append(b.buf, '>')
	return b.elem
}

func (b *builder) close(name string) {
	b.buf = append(b.buf, '<', '/')
	b.buf = append(b.buf, name...)
	b.buf = append(b.buf, '>')
}

// leaf writes <name>text</name>; text is written as is, so callers escape.
func (b *builder) leaf(name, text string) int64 {
	idx := b.open(name)
	b.buf = append(b.buf, text...)
	b.close(name)
	return idx
}

// beginRecord and endRecord bracket one record for the record table.
func (b *builder) beginRecord() {
	b.recs = append(b.recs, record{start: len(b.buf), firstElem: b.elem + 1})
}

func (b *builder) endRecord() { b.recs[len(b.recs)-1].end = len(b.buf) }

func (b *builder) document() *document {
	return &document{data: b.buf, recs: b.recs, elements: b.elem, tally: b.tally}
}

// genFeed writes a text-heavy feed: about 250 bytes per element, with
// attributes on every entry and a sprinkle of &amp; in the prose. The tally
// is feed.entry.title.
func genFeed(seed int64, entries int) *document {
	b := newBuilder(seed, entries*1400)
	shapes := b.deck(4)
	b.open("feed")
	for i := 0; i < entries; i++ {
		b.beginRecord()
		b.open("entry", "id", "e"+strconv.Itoa(i), "lang", b.pick("en", "de", "fr", "es"),
			"section", b.pick("world", "tech", "sport", "arts", "science"))
		b.tally = append(b.tally, b.leaf("title", b.text(50)))
		b.leaf("author", b.name()+" "+b.name())
		summary := b.text(140)
		if shapes.draw() == 0 {
			summary += " &amp; " + b.text(130)
		} else {
			summary += " " + b.text(136)
		}
		b.leaf("summary", summary)
		b.leaf("content", b.text(820))
		b.close("entry")
		b.endRecord()
	}
	b.close("feed")
	return b.document()
}

// genTopics writes a markup-dense document in the shape of the DMOZ
// structure dump: depth 3, about 13 bytes per event, Title before the
// optional editor. Of every 20 Topics 7 have a newsGroup, 4 an editor (2 of
// them both) and 5 each have 0, 1, 2 and 3 links. The tally is
// _*.Topic[editor].Title.
func genTopics(seed int64, topics int) *document {
	b := newBuilder(seed, topics*150)
	shapes := b.deck(20)
	b.open("RDF")
	for i := 0; i < topics; i++ {
		shape := shapes.draw()
		b.beginRecord()
		b.open("Topic")
		b.leaf("catid", strconv.Itoa(i))
		if shape < 7 {
			b.leaf("newsGroup", "news."+b.name())
		}
		title := b.leaf("Title", b.name())
		if shape%5 == 0 {
			b.leaf("editor", b.name())
			b.tally = append(b.tally, title)
		}
		for l := shape % 4; l > 0; l-- {
			b.leaf("link", "http://"+b.name()+".example/"+b.name())
		}
		b.close("Topic")
		b.endRecord()
	}
	b.close("RDF")
	return b.document()
}

// genTickets writes an issue-tracker dump with attributes and prose; the
// state child that decides an item trails its body, so the summary waits in
// the output buffer. Of every 20 items 14 have a state child, 6 are resolved
// and 10 are closed. The tally is _*.item[state].summary.
func genTickets(seed int64, items int) *document {
	b := newBuilder(seed, items*450)
	shapes := b.deck(20)
	b.open("items")
	for i := 0; i < items; i++ {
		shape := shapes.draw()
		b.beginRecord()
		status := "open"
		if shape%2 == 0 {
			status = "closed"
		}
		attrs := []string{"id", "t" + strconv.Itoa(i), "status", status, "priority", b.pick("p1", "p2", "p3")}
		resolved := shape >= 14
		if resolved {
			attrs = append(attrs, "resolution", "fixed")
		}
		b.open("item", attrs...)
		summary := b.leaf("summary", b.text(40)+" &amp; "+b.text(20))
		b.open("body")
		for p := 0; p < 3; p++ {
			b.leaf("para", b.text(80))
		}
		b.close("body")
		if shape < 10 || shape >= 16 {
			b.leaf("state", status)
			b.tally = append(b.tally, summary)
		}
		if resolved {
			b.leaf("resolution", "fixed")
		}
		b.close("item")
		b.endRecord()
	}
	b.close("items")
	return b.document()
}

// genSubscriptions returns n overlapping subscriptions over the Topic shape
// (internal/bench's shared-SDI corpus at overlap 0.5). The corpus is the same
// for every seed — its make-up decides what a pass costs, and that must not
// vary between runs — and the seed only decides the order in which the
// subscriptions are registered.
func genSubscriptions(seed int64, n int) []string {
	out := bench.SharedSubscriptions(n, 0.5, 1)
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// chunking splits a document into record-aligned chunks of at most max
// bytes (a record longer than max gets a chunk of its own); the first chunk
// carries the root's start tag and the last its end tag.
type chunking struct {
	ends []int // ends[i] is the byte offset just past chunk i
	// ofElem maps an element index to the chunk holding its record. The
	// root element maps to chunk 0.
	ofElem []int32
}

func chunk(d *document, max int) chunking {
	c := chunking{ofElem: make([]int32, d.elements+1)}
	start := 0
	for i, r := range d.recs {
		if r.end-start > max && r.start > start {
			c.ends = append(c.ends, r.start)
			start = r.start
		}
		last := d.elements
		if i+1 < len(d.recs) {
			last = d.recs[i+1].firstElem - 1
		}
		for e := r.firstElem; e <= last; e++ {
			c.ofElem[e] = int32(len(c.ends))
		}
	}
	c.ends = append(c.ends, len(d.data))
	return c
}
