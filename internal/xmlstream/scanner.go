package xmlstream

import (
	"fmt"
	"io"
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
// so steady-state scanning performs no allocation per element. Its one engine
// (fastscan.go) locates markup with bytes.IndexByte over the buffered window,
// parses whole constructs in place and hands out text and attribute values as
// views of the window; what is not a view is carved from the scanner's arenas
// (arena.go).
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
	emitText bool
	// emitAttrs selects full attribute tokenization (names interned, values
	// unescaped, duplicates rejected). When disabled the scanner reverts to
	// the paper's model and skips attribute text wholesale.
	emitAttrs bool
	attrBuf   []Attr // scratch attribute list, copied out per event
	limits    Limits
	err       error

	// text and attrs are the arenas the engine carves from what it cannot
	// serve as a view of the window.
	text    arena[byte]
	attrs   arena[Attr]
	textBuf []byte // scratch for runs larger than the window
	scratch []byte // scratch for entity unescaping

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
// the read window, so the engine parses every construct in place with no
// buffer slides and no copies; data must not be mutated while the scanner is
// in use. This is the fast path behind OpenFile (mmap).
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
		s.ownBuf = make([]byte, windowBytes)
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
	s.tokStart, s.errOff = 0, 0
	s.depth, s.maxDepth, s.events = 0, 0, 0
	s.text.reset()
	s.attrs.reset()
	// A scratch buffer sized by one oversized token is not carried along: a
	// pooled scanner would pin it.
	for _, b := range []*[]byte{&s.textBuf, &s.scratch} {
		if cap(*b) > maxKeptScratch {
			*b = nil
		}
	}
	// Nor is a window a long tag grew (moreTag).
	if len(s.ownBuf) > windowBytes {
		s.ownBuf = nil
	}
}

// maxKeptScratch is the largest scratch buffer Reset keeps.
const maxKeptScratch = 1 << 16

// windowBytes is the size of the read window a reader-fed scanner owns.
const windowBytes = 1 << 16

// Depth returns the number of currently open elements.
func (s *Scanner) Depth() int { return s.depth }

// MaxDepth returns the maximum element nesting depth seen so far.
func (s *Scanner) MaxDepth() int { return s.maxDepth }

// Events returns the number of events emitted so far.
func (s *Scanner) Events() int64 { return s.events }

// InputOffset returns the number of input bytes consumed so far. After an
// event is delivered it points just past the construct that produced it,
// whatever the reader's chunking (the accounting-parity tests hold it to the
// reference engine's). The batch scan loop tokenizes ahead of delivery, so
// the offset is tracked per delivered event, not at the raw scan position.
func (s *Scanner) InputOffset() int64 { return s.off }

// ErrorOffset returns the absolute byte offset of the construct whose scan
// failed — the position of its opening '<' (or the first byte of a text run),
// or the input length for end-of-input errors. It is meaningful only after
// Next returned a non-EOF error.
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
		if s.state == scanInDocument && s.fastBatch() {
			continue
		}
		s.tokStart = s.base + int64(s.pos)
		ev, ok, err := s.fastScan()
		if err != nil {
			// A failed Read (recorded by fill) is the root cause of any
			// truncated-markup diagnosis fastScan produced on top of it;
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

// finish handles end of input: valid only when all elements are closed.
func (s *Scanner) finish() (Event, bool, error) {
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

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameByte(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

// skipDoctype consumes a DOCTYPE or other "<!...>" declaration to its
// matching '>', tracking bracket nesting for internal subsets. Declarations
// appear at most once per document, so a byte-at-a-time loop does.
func (s *Scanner) skipDoctype() error {
	depth := 0
	for {
		if s.pos >= s.end && !s.fill() {
			if s.err != nil {
				return s.err
			}
			return truncatedf("unterminated declaration")
		}
		c := s.buf[s.pos]
		s.pos++
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
