package xmlstream

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// The byte-at-a-time reference engine: the tokenizer the Scanner started
// from, kept here as the oracle of the differential harness
// (differential_test.go), FuzzScanner and TestEngineOutpacesOracle. It reads
// one byte at a time through readByte, accumulates every token in scratch,
// enforces the token limits byte by byte and allocates what it returns. It
// shares the Scanner's window, open-element stack, interner, pending ring and
// accounting, and nothing of its scan engine but skipDoctype, finish and
// commitEndTag.

// seedScanner runs the reference engine over a Scanner's state.
type seedScanner struct {
	*Scanner
	nameBuf, attrNameBuf, valBuf []byte
}

// newSeedScanner returns the reference engine over r.
func newSeedScanner(r io.Reader, opts ...ScannerOption) *seedScanner {
	return &seedScanner{Scanner: NewScanner(r, opts...)}
}

// Next is Scanner.Next without the batch loop and the arenas: every event but
// a self-closing tag's end comes straight from scan.
func (s *seedScanner) Next() (Event, error) {
	if s.err != nil {
		return Event{}, s.err
	}
	for {
		if s.pendHead < len(s.pending) {
			ev := s.pending[s.pendHead].ev
			s.pendHead++
			if s.pendHead == len(s.pending) {
				s.pending, s.pendHead = s.pending[:0], 0
			}
			s.off = s.base + int64(s.pos)
			return s.account(ev), nil
		}
		s.tokStart = s.base + int64(s.pos)
		ev, ok, err := s.scan()
		if err != nil {
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

// readByte returns the next input byte; ok is false at end of input or on a
// read error (recorded in s.err).
func (s *seedScanner) readByte() (byte, bool) {
	if s.pos >= s.end && !s.fill() {
		return 0, false
	}
	c := s.buf[s.pos]
	s.pos++
	return c, true
}

// scan consumes input until it produces one event (ok=true), decides the
// current input yields no event yet (ok=false, e.g. skipped comment), or
// fails.
func (s *seedScanner) scan() (Event, bool, error) {
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

// readText accumulates character data starting with first until the next
// '<' (left unconsumed). Entity references are resolved for the five
// predefined entities; unknown entities pass through verbatim.
func (s *seedScanner) readText(first byte) (string, error) {
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
func (s *seedScanner) skipText() error {
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
func (s *seedScanner) skipPI() error {
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
func (s *seedScanner) skipDeclaration() error {
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

// skipComment consumes a comment after "<!--" up to "-->".
func (s *seedScanner) skipComment() error {
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
func (s *seedScanner) scanCDATA() error {
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
func (s *seedScanner) scanStartTag(first byte) (Event, bool, error) {
	if s.state == scanAfterRoot {
		return Event{}, false, fmt.Errorf("xmlstream: content after document root")
	}
	if max := s.limits.MaxDepth; max > 0 && len(s.stack) >= max {
		return Event{}, false, &ScanLimitError{What: "nesting", Limit: max, sentinel: ErrTooDeep}
	}
	name, sym, attrs, selfClose, err := s.readTagRest(first)
	if err != nil {
		return Event{}, false, err
	}
	s.state = scanInDocument
	if selfClose {
		s.pushLive(Event{Kind: EndElement, Sym: sym, Name: name})
		if len(s.stack) == 0 {
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
func (s *seedScanner) readTagRest(first byte) (name string, sym Sym, attrs []Attr, selfClose bool, err error) {
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
// values have the predefined entities resolved and are ordinary heap strings.
func (s *seedScanner) readAttributes() (attrs []Attr, selfClose bool, err error) {
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

// takeAttrs copies the scratch attribute list out into a fresh slice.
func (s *seedScanner) takeAttrs() []Attr {
	if len(s.attrBuf) == 0 {
		return nil
	}
	attrs := make([]Attr, len(s.attrBuf))
	copy(attrs, s.attrBuf)
	return attrs
}

// readAttrName reads an attribute name beginning with first and interns it.
func (s *seedScanner) readAttrName(first byte) (string, Sym, error) {
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
func (s *seedScanner) readAttrValue(name string) (string, error) {
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
func (s *seedScanner) skipAttributes() (selfClose bool, err error) {
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
func (s *seedScanner) scanEndTag() (Event, bool, error) {
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
func (s *seedScanner) expect(want byte) error {
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

// Decoder adapts encoding/xml's token stream to the Event stream of this
// package: a conformance reference for the hand-written Scanner
// (TestScannerAgainstDecoder) and the baseline of BenchmarkScannerAblation.
type Decoder struct {
	d       *xml.Decoder
	started bool
	ended   bool
	depth   int
}

// NewDecoder returns a Decoder over r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{d: xml.NewDecoder(r)}
}

// Next returns the next event, mirroring Scanner.Next: a StartDocument
// first, EndDocument last, io.EOF thereafter.
func (d *Decoder) Next() (Event, error) {
	if !d.started {
		d.started = true
		return Event{Kind: StartDocument}, nil
	}
	if d.ended {
		return Event{}, io.EOF
	}
	for {
		tok, err := d.d.Token()
		if err == io.EOF {
			d.ended = true
			return Event{Kind: EndDocument}, nil
		}
		if err != nil {
			return Event{}, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			d.depth++
			var attrs []Attr
			if len(t.Attr) > 0 {
				attrs = make([]Attr, 0, len(t.Attr))
				for _, a := range t.Attr {
					// Namespace declarations are not part of this package's
					// model; the scanner treats them as ordinary attributes,
					// so keep them (with their prefixed spelling) here too.
					name := a.Name.Local
					if a.Name.Space == "xmlns" {
						name = "xmlns:" + a.Name.Local
					}
					attrs = append(attrs, Attr{Name: name, Value: a.Value})
				}
			}
			return Event{Kind: StartElement, Name: t.Name.Local, Attrs: attrs}, nil
		case xml.EndElement:
			d.depth--
			return Event{Kind: EndElement, Name: t.Name.Local}, nil
		case xml.CharData:
			if d.depth > 0 && len(t) > 0 {
				return Event{Kind: Text, Data: string(t)}, nil
			}
		}
		// Comments, directives and PIs are skipped, as in Scanner.
	}
}
