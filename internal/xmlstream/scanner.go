package xmlstream

import (
	"fmt"
	"io"
	"strings"
)

// Scanner tokenizes an XML byte stream into Events without ever buffering
// the document: it reads forward only and keeps memory bounded in the depth
// of the document (for the well-formedness stack), matching the streaming
// requirements of §II.1.
//
// The scanner is deliberately lenient about XML features the paper excludes:
// attributes are skipped, processing instructions, comments, CDATA sections
// and DOCTYPE declarations are consumed silently. It is strict about tag
// nesting: mismatched or unclosed tags yield errors.
//
// The implementation manages its own read buffer and interns element names,
// so steady-state scanning performs no allocation per element.
//
// Two scan engines share this struct. The default is the vectorized zero-copy
// path (fastscan.go): it locates markup with bytes.IndexByte over the buffered
// window, parses whole constructs in place and hands out text and attribute
// values as views of the window; what is not a view is carved from the
// scanner's arenas (arena.go). WithSeedScan selects the original
// byte-at-a-time reference engine, kept as the oracle for the differential
// harness and as the ablation baseline in spexbench -fig ingest.
//
// Event lifetime: the strings and the Attrs slice of an event returned by
// Next are valid until the next call of Next when the scanner reads from an
// io.Reader (NewScanner, Reset), and until Reset when it scans caller-owned
// bytes (ScanBytes, ResetBytes). Element and attribute names are interned and
// valid forever. A consumer that keeps an event longer copies it: Event.Clone
// for one, a Tape for many.
type Scanner struct {
	r      io.Reader
	buf    []byte
	ownBuf []byte // the buffer the scanner allocated; nil when scanning caller bytes
	pos    int
	end    int
	eof    bool
	// stable marks caller-owned input (ScanBytes/ResetBytes): the window is
	// the whole document, never refilled, and the arenas are not rewound
	// before Reset — which is what extends the event lifetime to Reset.
	stable bool
	// dead is how much of the window is already poisoned (spexpoison only).
	dead int
	// base is the absolute input offset of buf[0]: base+pos is the number of
	// input bytes consumed, maintained across buffer slides by fill.
	base      int64
	stack     []string // open element names, for well-formedness
	stackSyms []Sym    // symbols of the open elements, parallel to stack
	state     scanState
	// pending is the ring of tokenized, undelivered events: what the batch
	// loop (fastBatch) ran ahead of Next, and the extra events of a construct
	// that yields several (a self-closing tag produces Start then End).
	// pendHead indexes the next one to deliver; the slice resets to its full
	// capacity once drained, so steady-state scanning never reallocates it.
	// The window is refilled and the arenas rewound only while it is empty.
	pending  []pendEvent
	pendHead int
	// off is the input offset of the most recently delivered event — what
	// InputOffset reports.
	off      int64
	names    map[string]string // interned element names (no Symtab attached)
	symtab   *Symtab           // shared interner; nil falls back to names
	nameBuf  []byte
	emitText bool
	// emitAttrs selects full attribute tokenization (names interned, values
	// unescaped, duplicates rejected). When disabled the scanner reverts to
	// the paper's model and skips attribute text wholesale.
	emitAttrs   bool
	attrBuf     []Attr // scratch attribute list, copied out per event
	attrNameBuf []byte
	valBuf      []byte
	limits      Limits
	err         error

	// seedMode selects the byte-at-a-time reference engine (WithSeedScan).
	seedMode bool
	// text and attrs are the arenas the zero-copy engine carves from what it
	// cannot serve as a view of the window; the seed engine never touches
	// them.
	text    arena[byte]
	attrs   arena[Attr]
	textBuf []byte // scratch for runs larger than the window
	scratch []byte // scratch for entity unescaping

	// fragment mode tokenizes a mid-document byte range for the parallel
	// chunk scanner: no document brackets, end tags may close elements opened
	// in earlier chunks (underflow), text emission is decided against
	// baseDepth + local depth, and end-of-input is not a truncation error —
	// the stitcher owns document-level well-formedness.
	fragment  bool
	baseDepth int
	underflow int // end tags consumed with an empty local stack

	// tokStart is the absolute offset of the construct being scanned; errOff
	// freezes it when the construct fails (ErrorOffset).
	tokStart int64
	errOff   int64

	depth    int
	maxDepth int
	events   int64
}

// pendEvent is one entry of the pending ring. off is the input offset just
// past the event's construct, or liveOffset for an event pushed outside the
// batch loop (document brackets, self-close pairs, CDATA text), whose delivery
// offset is the scan position: it has not moved since the construct.
type pendEvent struct {
	ev  Event
	off int64
}

const liveOffset = -1

type scanState uint8

const (
	scanBeforeRoot scanState = iota
	scanInDocument
	scanAfterRoot
	scanDone
)

// ScannerOption configures a Scanner.
type ScannerOption func(*Scanner)

// WithText controls whether the scanner emits Text events for character
// data. The default is true; structural-only consumers (counting or
// locating matches) disable it to skip text handling entirely.
func WithText(emit bool) ScannerOption {
	return func(s *Scanner) { s.emitText = emit }
}

// WithAttributes controls whether the scanner tokenizes attribute lists into
// Event.Attrs. The default is true; structural-only consumers (queries with
// no attribute tests, count mode) disable it to skip attribute text
// wholesale, restoring the paper's attribute-free model. When enabled, the
// scanner is strict: attributes must be name="value" or name='value' pairs,
// and a duplicated attribute name within one tag is a well-formedness error
// (ErrDuplicateAttr).
func WithAttributes(emit bool) ScannerOption {
	return func(s *Scanner) { s.emitAttrs = emit }
}

// WithSeedScan selects the original byte-at-a-time scan engine instead of the
// vectorized zero-copy default. The two engines produce byte-identical event
// streams, error classes and error offsets (the differential harness enforces
// this); the seed engine exists as that harness's oracle and as the baseline
// the ingest ablation measures against.
func WithSeedScan(on bool) ScannerOption {
	return func(s *Scanner) { s.seedMode = on }
}

// WithSymtab makes the scanner resolve element labels against the given
// symbol table: every StartElement and EndElement event carries the label's
// Sym, so a network compiled against the same table evaluates label tests as
// integer comparisons without ever touching the interner itself. Steady-state
// scanning still performs no allocation: an already-interned label is one
// lock-free lookup.
func WithSymtab(t *Symtab) ScannerOption {
	return func(s *Scanner) { s.symtab = t }
}

// AdoptSymtab attaches the table to a scanner built without one, so an
// evaluator handed a bare scanner can share its own table with it instead of
// re-resolving every event. Events already emitted keep their zero Sym (the
// network resolves those itself); a scanner that already has a table keeps
// it, since its consumers hold symbols from that table. It reports whether
// the scanner uses the given table afterwards.
func (s *Scanner) AdoptSymtab(t *Symtab) bool {
	if s.symtab == nil {
		s.symtab = t
	}
	return s.symtab == t
}

// SymtabInUse returns the table the scanner resolves labels against, or nil
// for a plain string-naming scanner.
func (s *Scanner) SymtabInUse() *Symtab { return s.symtab }

// NewScanner returns a Scanner producing the event stream of the document
// read from r. The stream begins with a StartDocument event and, if the
// document is well formed, ends with EndDocument followed by io.EOF.
func NewScanner(r io.Reader, opts ...ScannerOption) *Scanner {
	s := newScanner(opts)
	s.Reset(r)
	return s
}

// ScanBytes returns a Scanner over an in-memory document. The whole input is
// the read window, so the zero-copy engine parses every construct in place
// with no buffer slides and no copies; data must not be mutated while the
// scanner is in use. This is the fast path behind OpenFile (mmap) and the
// parallel chunk scanner.
func ScanBytes(data []byte, opts ...ScannerOption) *Scanner {
	s := newScanner(opts)
	s.ResetBytes(data)
	return s
}

func newScanner(opts []ScannerOption) *Scanner {
	s := &Scanner{
		emitText:  true,
		emitAttrs: true,
		limits:    Limits{}.withDefaults(),
		text:      arena[byte]{size: arenaBlockBytes, wipe: poisonByte},
		attrs:     arena[Attr]{size: arenaBlockAttrs, wipe: poisonAttr},
		// One batch, whose last construct may be a self-closing tag.
		pending: make([]pendEvent, 0, batchEvents+1),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Reset rewinds the scanner to scan a new document from r, keeping its
// buffers, interned names and arenas; options, if any, are applied on top of
// the scanner's configuration, so a pooled scanner can serve an evaluation
// with different settings. Calling Reset asserts that every event delivered
// from the previous document is dead: the arenas are rewound and their
// storage will be rewritten. With a warm scanner, Reset plus a full scan
// performs zero steady-state allocations (the ingest CI gate pins this).
// Reset(nil) only drops the scanner's reference to its input.
func (s *Scanner) Reset(r io.Reader, opts ...ScannerOption) {
	for _, opt := range opts {
		opt(s)
	}
	s.resetState()
	s.r = r
	if s.ownBuf == nil {
		s.ownBuf = make([]byte, 1<<16)
	}
	s.buf = s.ownBuf
	s.pos, s.end = 0, 0
	s.eof = false
	s.stable = false
}

// ResetBytes is Reset over an in-memory document (see ScanBytes).
func (s *Scanner) ResetBytes(data []byte, opts ...ScannerOption) {
	for _, opt := range opts {
		opt(s)
	}
	s.resetState()
	s.r = nil
	s.buf = data
	s.pos, s.end = 0, len(data)
	s.eof = true
	s.stable = true
}

func (s *Scanner) resetState() {
	s.base = 0
	s.stack = s.stack[:0]
	s.stackSyms = s.stackSyms[:0]
	s.state = scanBeforeRoot
	s.pending = append(s.pending[:0], pendEvent{Event{Kind: StartDocument}, liveOffset})
	s.pendHead = 0
	s.off = 0
	s.dead = 0
	s.err = nil
	s.underflow = 0
	s.tokStart, s.errOff = 0, 0
	s.depth, s.maxDepth, s.events = 0, 0, 0
	s.text.reset()
	s.attrs.reset()
	// A scratch buffer sized by one oversized token is not carried along: a
	// pooled scanner would pin it.
	for _, b := range []*[]byte{&s.textBuf, &s.scratch, &s.valBuf} {
		if cap(*b) > maxKeptScratch {
			*b = nil
		}
	}
}

// maxKeptScratch is the largest scratch buffer Reset keeps.
const maxKeptScratch = 1 << 16

// Depth returns the number of currently open elements.
func (s *Scanner) Depth() int { return s.depth }

// MaxDepth returns the maximum element nesting depth seen so far.
func (s *Scanner) MaxDepth() int { return s.maxDepth }

// Events returns the number of events emitted so far.
func (s *Scanner) Events() int64 { return s.events }

// InputOffset returns the number of input bytes consumed so far. After an
// event is delivered it points just past the construct that produced it; the
// value is identical across the seed, zero-copy and parallel engines (the
// accounting-parity tests enforce this). The batch scan loop tokenizes ahead
// of delivery, so the offset is tracked per delivered event, not at the raw
// scan position.
func (s *Scanner) InputOffset() int64 { return s.off }

// ErrorOffset returns the absolute byte offset of the construct whose scan
// failed — the position of its opening '<' (or the first byte of a text run),
// or the input length for end-of-input errors. It is meaningful only after
// Next returned a non-EOF error, and is identical across scan engines.
func (s *Scanner) ErrorOffset() int64 { return s.errOff }

// fill slides unread bytes to the front of the buffer and reads more input.
// It reports whether any new bytes are available.
func (s *Scanner) fill() bool {
	if s.err != nil {
		return false // a failed reader is not asked again
	}
	if s.eof {
		return s.pos < s.end
	}
	if s.pos > 0 {
		copy(s.buf, s.buf[s.pos:s.end])
		s.base += int64(s.pos)
		s.end -= s.pos
		s.pos = 0
		s.dead = 0
	}
	for s.end < len(s.buf) {
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		if err == io.EOF {
			s.eof = true
			break
		}
		if err != nil {
			s.err = err
			return false
		}
		if n > 0 {
			break
		}
	}
	return s.pos < s.end
}

// readByte returns the next input byte; ok is false at end of input or on a
// read error (recorded in s.err).
func (s *Scanner) readByte() (byte, bool) {
	if s.pos < s.end {
		c := s.buf[s.pos]
		s.pos++
		return c, true
	}
	if !s.fill() {
		return 0, false
	}
	c := s.buf[s.pos]
	s.pos++
	return c, true
}

// peekAt returns the byte i positions ahead without consuming, refilling as
// needed; ok is false when input ends first.
func (s *Scanner) peekAt(i int) (byte, bool) {
	for s.pos+i >= s.end {
		if s.eof || !s.fill() {
			if s.pos+i < s.end {
				break
			}
			return 0, false
		}
	}
	return s.buf[s.pos+i], true
}

// intern returns a shared string and the interned symbol for the element
// name in b. With a Symtab attached the table is the single source of both;
// otherwise the scanner's private map shares the string and the symbol stays
// zero (resolved later by the evaluating network, if any).
func (s *Scanner) intern(b []byte) (string, Sym) {
	if s.symtab != nil {
		sym, name := s.symtab.internBytes(b)
		return name, sym
	}
	if name, ok := s.names[string(b)]; ok { // no allocation: map lookup on []byte key
		return name, 0
	}
	if s.names == nil {
		s.names = make(map[string]string, 32) // not before a scan without a Symtab needs it
	}
	name := string(b)
	s.names[name] = name
	return name, 0
}

// Next returns the next event. It returns io.EOF after EndDocument has been
// delivered. Any other error indicates malformed input; the stream cannot
// be resumed after an error. How long the returned event's strings and Attrs
// stay valid is the type's event-lifetime rule: until the next call of Next
// over a reader, until Reset over caller-owned bytes.
func (s *Scanner) Next() (Event, error) {
	if s.err != nil {
		return Event{}, s.err
	}
	for {
		if s.pendHead < len(s.pending) {
			p := &s.pending[s.pendHead]
			s.off = p.off
			if p.off == liveOffset {
				s.off = s.base + int64(s.pos)
			}
			s.pendHead++
			if s.pendHead == len(s.pending) {
				// Drained: reuse the full backing array instead of letting
				// the slice base creep forward and reallocate.
				s.pending = s.pending[:0]
				s.pendHead = 0
			}
			return s.account(p.ev), nil
		}
		if !s.stable {
			// The ring is empty, so every event delivered so far is dead:
			// what was carved for them is reused, and only from here on may
			// the window be refilled.
			s.text.rewind()
			s.attrs.rewind()
			if poison {
				s.poisonConsumed()
			}
		}
		if !s.seedMode && (s.state == scanInDocument || (s.fragment && s.state != scanDone)) &&
			s.fastBatch() {
			continue
		}
		s.tokStart = s.base + int64(s.pos)
		var ev Event
		var ok bool
		var err error
		if s.seedMode {
			ev, ok, err = s.scan()
		} else {
			ev, ok, err = s.fastScan()
		}
		if err != nil {
			// A failed Read (recorded by fill) is the root cause of any
			// truncated-markup diagnosis scan produced on top of it;
			// report the read error so cancellations surface as themselves.
			if s.err != nil {
				err = s.err
			} else {
				s.err = err
			}
			s.errOff = s.tokStart
			return Event{}, err
		}
		if ok {
			s.off = s.base + int64(s.pos)
			return s.account(ev), nil
		}
	}
}

// poisonConsumed overwrites the part of the scanner's own window that lies
// behind the scan position (spexpoison builds): a view of it that is still
// read belongs to an event kept past its lifetime.
func (s *Scanner) poisonConsumed() {
	for i := s.dead; i < s.pos; i++ {
		s.buf[i] = poisonByte
	}
	s.dead = max(s.dead, s.pos)
}

// account updates stream statistics as ev is delivered.
func (s *Scanner) account(ev Event) Event {
	s.events++
	switch ev.Kind {
	case StartElement:
		s.depth++
		if s.depth > s.maxDepth {
			s.maxDepth = s.depth
		}
	case EndElement:
		s.depth--
	}
	return ev
}

// scan consumes input until it produces one event (ok=true), decides the
// current input yields no event yet (ok=false, e.g. skipped comment), or
// fails.
func (s *Scanner) scan() (Event, bool, error) {
	if s.state == scanDone {
		return Event{}, false, io.EOF
	}
	c, ok := s.readByte()
	if !ok {
		if s.err != nil {
			return Event{}, false, s.err
		}
		return s.finish()
	}
	if c != '<' {
		if s.emitText && s.inContent() {
			text, err := s.readText(c)
			if err != nil {
				return Event{}, false, err
			}
			if text != "" {
				return Event{Kind: Text, Data: text}, true, nil
			}
			return Event{}, false, nil
		}
		// Whitespace (or ignorable prolog/epilog text) outside text mode.
		if err := s.skipText(); err != nil {
			return Event{}, false, err
		}
		return Event{}, false, nil
	}
	c, ok = s.readByte()
	if !ok {
		return Event{}, false, truncatedf("unexpected end of input inside markup")
	}
	switch c {
	case '?':
		return Event{}, false, s.skipPI()
	case '!':
		return Event{}, false, s.skipDeclaration()
	case '/':
		return s.scanEndTag()
	default:
		return s.scanStartTag(c)
	}
}

// finish handles end of input: valid only when all elements are closed.
func (s *Scanner) finish() (Event, bool, error) {
	if s.fragment {
		// A chunk may legitimately end with elements still open (closed by a
		// later chunk) and emits no document brackets; the stitcher owns
		// document-level well-formedness.
		s.state = scanDone
		return Event{}, false, io.EOF
	}
	switch s.state {
	case scanBeforeRoot:
		return Event{}, false, fmt.Errorf("xmlstream: empty document: no root element")
	case scanInDocument:
		return Event{}, false, truncatedf("unexpected end of input: %d unclosed element(s), innermost <%s>",
			len(s.stack), s.stack[len(s.stack)-1])
	case scanAfterRoot:
		s.state = scanDone
		return Event{Kind: EndDocument}, true, nil
	default:
		return Event{}, false, io.EOF
	}
}

// readText accumulates character data starting with first until the next
// '<' (left unconsumed). Entity references are resolved for the five
// predefined entities; unknown entities pass through verbatim.
func (s *Scanner) readText(first byte) (string, error) {
	var b strings.Builder
	b.WriteByte(first)
	for {
		if s.pos >= s.end && !s.fill() {
			break
		}
		// Copy the buffered run up to '<' in one step.
		chunk := s.buf[s.pos:s.end]
		if i := indexByte(chunk, '<'); i >= 0 {
			b.Write(chunk[:i])
			s.pos += i
			break
		}
		b.Write(chunk)
		s.pos = s.end
		if max := s.limits.MaxTokenBytes; max > 0 && b.Len() > max {
			return "", s.tokenTooLarge("text")
		}
	}
	if max := s.limits.MaxTokenBytes; max > 0 && b.Len() > max {
		return "", s.tokenTooLarge("text")
	}
	return unescapeText(b.String()), nil
}

// skipText consumes character data without building a string.
func (s *Scanner) skipText() error {
	for {
		if s.pos >= s.end && !s.fill() {
			return s.err
		}
		chunk := s.buf[s.pos:s.end]
		if i := indexByte(chunk, '<'); i >= 0 {
			s.pos += i
			return nil
		}
		s.pos = s.end
	}
}

func indexByte(b []byte, c byte) int {
	for i, x := range b {
		if x == c {
			return i
		}
	}
	return -1
}

// skipPI consumes a processing instruction after "<?" up to "?>".
func (s *Scanner) skipPI() error {
	prev := byte(0)
	for {
		c, ok := s.readByte()
		if !ok {
			return truncatedf("unterminated processing instruction")
		}
		if prev == '?' && c == '>' {
			return nil
		}
		prev = c
	}
}

// skipDeclaration consumes "<!...>" constructs: comments, CDATA sections
// and DOCTYPE declarations (including bracketed internal subsets). CDATA
// content is queued as text when text emission is enabled and we are inside
// the document.
func (s *Scanner) skipDeclaration() error {
	if c0, ok := s.peekAt(0); ok && c0 == '-' {
		if c1, ok := s.peekAt(1); ok && c1 == '-' {
			s.pos += 2
			return s.skipComment()
		}
	}
	if s.hasPrefix("[CDATA[") {
		s.pos += 7
		return s.scanCDATA()
	}
	return s.skipDoctype()
}

// skipDoctype consumes a DOCTYPE or other "<!...>" declaration to its
// matching '>', tracking bracket nesting for internal subsets. Declarations
// appear at most once per document, so both engines share this byte-at-a-time
// loop.
func (s *Scanner) skipDoctype() error {
	depth := 0
	for {
		c, ok := s.readByte()
		if !ok {
			if s.err != nil {
				return s.err
			}
			return truncatedf("unterminated declaration")
		}
		switch c {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				return nil
			}
		}
	}
}

// hasPrefix reports whether the unconsumed input starts with p.
func (s *Scanner) hasPrefix(p string) bool {
	for i := 0; i < len(p); i++ {
		c, ok := s.peekAt(i)
		if !ok || c != p[i] {
			return false
		}
	}
	return true
}

// skipComment consumes a comment after "<!--" up to "-->".
func (s *Scanner) skipComment() error {
	run := 0
	for {
		c, ok := s.readByte()
		if !ok {
			return truncatedf("unterminated comment")
		}
		switch {
		case c == '-':
			run++
		case c == '>' && run >= 2:
			return nil
		default:
			run = 0
		}
	}
}

// scanCDATA consumes a CDATA section after "<![CDATA[" up to "]]>". The
// content is queued as a Text event when appropriate.
func (s *Scanner) scanCDATA() error {
	var b strings.Builder
	run := 0
	for {
		c, ok := s.readByte()
		if !ok {
			return truncatedf("unterminated CDATA section")
		}
		switch {
		case c == ']':
			run++
			if run > 2 {
				b.WriteByte(']')
				run = 2
			}
		case c == '>' && run >= 2:
			if s.emitText && s.inContent() && b.Len() > 0 {
				s.pushLive(Event{Kind: Text, Data: b.String()})
			}
			return nil
		default:
			for ; run > 0; run-- {
				b.WriteByte(']')
			}
			b.WriteByte(c)
		}
		if max := s.limits.MaxTokenBytes; max > 0 && b.Len() > max {
			return s.tokenTooLarge("CDATA section")
		}
	}
}

// scanStartTag parses a start tag whose name begins with first, tokenizing
// its attribute list. A self-closing tag queues the corresponding end event.
func (s *Scanner) scanStartTag(first byte) (Event, bool, error) {
	if s.state == scanAfterRoot {
		return Event{}, false, fmt.Errorf("xmlstream: content after document root")
	}
	if max := s.limits.MaxDepth; max > 0 && s.effDepth() >= max {
		return Event{}, false, &ScanLimitError{What: "nesting", Limit: max, sentinel: ErrTooDeep}
	}
	name, sym, attrs, selfClose, err := s.readTagRest(first)
	if err != nil {
		return Event{}, false, err
	}
	s.state = scanInDocument
	if selfClose {
		s.pushLive(Event{Kind: EndElement, Sym: sym, Name: name})
		if len(s.stack) == 0 && !s.fragment {
			s.state = scanAfterRoot
		}
	} else {
		s.stack = append(s.stack, name)
		s.stackSyms = append(s.stackSyms, sym)
	}
	return Event{Kind: StartElement, Sym: sym, Name: name, Attrs: attrs}, true, nil
}

// readTagRest reads the remainder of a start tag: name, attribute list, and
// the closing '>' or '/>'.
func (s *Scanner) readTagRest(first byte) (name string, sym Sym, attrs []Attr, selfClose bool, err error) {
	if !isNameStart(first) {
		return "", 0, nil, false, fmt.Errorf("xmlstream: invalid character %q at start of tag name", first)
	}
	s.nameBuf = append(s.nameBuf[:0], first)
	for {
		c, ok := s.readByte()
		if !ok {
			return "", 0, nil, false, truncatedf("unterminated start tag")
		}
		switch {
		case isNameByte(c):
			if max := s.limits.MaxTokenBytes; max > 0 && len(s.nameBuf) >= max {
				return "", 0, nil, false, s.tokenTooLarge("tag name")
			}
			s.nameBuf = append(s.nameBuf, c)
		case c == '>':
			name, sym = s.intern(s.nameBuf)
			return name, sym, nil, false, nil
		case c == '/':
			if err := s.expect('>'); err != nil {
				return "", 0, nil, false, err
			}
			name, sym = s.intern(s.nameBuf)
			return name, sym, nil, true, nil
		case isSpace(c):
			if !s.emitAttrs {
				selfClose, err := s.skipAttributes()
				name, sym = s.intern(s.nameBuf)
				return name, sym, nil, selfClose, err
			}
			attrs, selfClose, err := s.readAttributes()
			name, sym = s.intern(s.nameBuf)
			return name, sym, attrs, selfClose, err
		default:
			return "", 0, nil, false, fmt.Errorf("xmlstream: invalid character %q in tag name %q", c, s.nameBuf)
		}
	}
}

// readAttributes tokenizes a start tag's attribute list after the first
// whitespace byte following the tag name. It enforces well-formedness: every
// attribute is a name="value" (or single-quoted) pair, and a name may occur
// at most once per tag. Attribute names are interned like element labels;
// values have the predefined entities resolved and are ordinary heap strings
// (this is the reference engine; values are unbounded in number, so nothing
// caches them).
func (s *Scanner) readAttributes() (attrs []Attr, selfClose bool, err error) {
	s.attrBuf = s.attrBuf[:0]
	for {
		c, ok := s.readByte()
		if !ok {
			return nil, false, truncatedf("unterminated start tag <%s", s.nameBuf)
		}
		if isSpace(c) {
			continue
		}
		switch c {
		case '>':
			return s.takeAttrs(), false, nil
		case '/':
			if err := s.expect('>'); err != nil {
				return nil, false, err
			}
			return s.takeAttrs(), true, nil
		}
		if !isNameStart(c) {
			return nil, false, fmt.Errorf("xmlstream: invalid character %q in attribute list of <%s>", c, s.nameBuf)
		}
		name, sym, err := s.readAttrName(c)
		if err != nil {
			return nil, false, err
		}
		if err := s.expect('='); err != nil {
			return nil, false, err
		}
		val, err := s.readAttrValue(name)
		if err != nil {
			return nil, false, err
		}
		for _, a := range s.attrBuf {
			if a.Name == name {
				return nil, false, duplicateAttrf(name, s.nameBuf)
			}
		}
		s.attrBuf = append(s.attrBuf, Attr{Name: name, Sym: sym, Value: val})
	}
}

// takeAttrs copies the scratch attribute list out into a fresh slice (the
// reference engine allocates what it returns).
func (s *Scanner) takeAttrs() []Attr {
	if len(s.attrBuf) == 0 {
		return nil
	}
	attrs := make([]Attr, len(s.attrBuf))
	copy(attrs, s.attrBuf)
	return attrs
}

// readAttrName reads an attribute name beginning with first and interns it.
func (s *Scanner) readAttrName(first byte) (string, Sym, error) {
	s.attrNameBuf = append(s.attrNameBuf[:0], first)
	for {
		c, ok := s.peekAt(0)
		if !ok {
			if s.err != nil {
				return "", 0, s.err
			}
			return "", 0, truncatedf("unterminated start tag <%s", s.nameBuf)
		}
		if !isNameByte(c) {
			break
		}
		if max := s.limits.MaxTokenBytes; max > 0 && len(s.attrNameBuf) >= max {
			return "", 0, s.tokenTooLarge("attribute name")
		}
		s.attrNameBuf = append(s.attrNameBuf, c)
		s.pos++
	}
	name, sym := s.intern(s.attrNameBuf)
	return name, sym, nil
}

// readAttrValue reads a quoted attribute value for the named attribute,
// resolving entity references.
func (s *Scanner) readAttrValue(name string) (string, error) {
	q, ok := s.readByte()
	for ok && isSpace(q) {
		q, ok = s.readByte()
	}
	if !ok {
		if s.err != nil {
			return "", s.err
		}
		return "", truncatedf("unterminated start tag <%s", s.nameBuf)
	}
	if q != '"' && q != '\'' {
		return "", fmt.Errorf("xmlstream: unquoted value for attribute %q in <%s>", name, s.nameBuf)
	}
	s.valBuf = s.valBuf[:0]
	for {
		if s.pos >= s.end && !s.fill() {
			if s.err != nil {
				return "", s.err
			}
			return "", truncatedf("unterminated value for attribute %q in <%s>", name, s.nameBuf)
		}
		chunk := s.buf[s.pos:s.end]
		i := indexByte(chunk, q)
		if i < 0 {
			s.valBuf = append(s.valBuf, chunk...)
			s.pos = s.end
		} else {
			s.valBuf = append(s.valBuf, chunk[:i]...)
			s.pos += i + 1
		}
		if max := s.limits.MaxTokenBytes; max > 0 && len(s.valBuf) > max {
			return "", s.tokenTooLarge("attribute value")
		}
		if i >= 0 {
			// Well-formedness: a raw '<' cannot appear in an attribute value
			// (it must be written &lt;). The check runs on the raw bytes, so
			// entity-produced '<' passes.
			if indexByte(s.valBuf, '<') >= 0 {
				return "", fmt.Errorf("xmlstream: raw '<' in value of attribute %q in <%s>", name, s.nameBuf)
			}
			return unescapeText(string(s.valBuf)), nil
		}
	}
}

// skipAttributes consumes attribute text until '>' or '/>', honouring
// quoted values so that '>' inside quotes does not terminate the tag.
func (s *Scanner) skipAttributes() (selfClose bool, err error) {
	var quote byte
	prev := byte(0)
	for {
		c, ok := s.readByte()
		if !ok {
			return false, truncatedf("unterminated start tag")
		}
		if quote != 0 {
			if c == quote {
				quote = 0
			}
			prev = c
			continue
		}
		switch c {
		case '"', '\'':
			quote = c
		case '>':
			return prev == '/', nil
		}
		prev = c
	}
}

// scanEndTag parses an end tag after "</" and checks it against the open
// element stack.
func (s *Scanner) scanEndTag() (Event, bool, error) {
	s.nameBuf = s.nameBuf[:0]
	for {
		c, ok := s.readByte()
		if !ok {
			return Event{}, false, truncatedf("unterminated end tag")
		}
		if c == '>' {
			break
		}
		if isSpace(c) {
			if err := s.expect('>'); err != nil {
				return Event{}, false, err
			}
			break
		}
		if !isNameByte(c) {
			return Event{}, false, fmt.Errorf("xmlstream: invalid character %q in end tag", c)
		}
		if max := s.limits.MaxTokenBytes; max > 0 && len(s.nameBuf) >= max {
			return Event{}, false, s.tokenTooLarge("tag name")
		}
		s.nameBuf = append(s.nameBuf, c)
	}
	return s.commitEndTag(s.nameBuf, s.pos)
}

// expect consumes exactly the byte want, skipping leading whitespace.
func (s *Scanner) expect(want byte) error {
	for {
		c, ok := s.readByte()
		if !ok {
			return truncatedf("unexpected end of input, want %q", want)
		}
		if isSpace(c) {
			continue
		}
		if c != want {
			return fmt.Errorf("xmlstream: unexpected character %q, want %q", c, want)
		}
		return nil
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameByte(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

// unescapeText resolves the predefined XML entities in s. Unknown entity
// references are left untouched.
func unescapeText(s string) string {
	if !strings.Contains(s, "&") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		end := strings.IndexByte(s[i:], ';')
		if end < 0 {
			b.WriteString(s[i:])
			break
		}
		entity := s[i+1 : i+end]
		switch entity {
		case "lt":
			b.WriteByte('<')
		case "gt":
			b.WriteByte('>')
		case "amp":
			b.WriteByte('&')
		case "apos":
			b.WriteByte('\'')
		case "quot":
			b.WriteByte('"')
		default:
			b.WriteString(s[i : i+end+1])
		}
		i += end + 1
	}
	return b.String()
}
