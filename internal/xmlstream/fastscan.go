package xmlstream

import (
	"bytes"
	"fmt"
	"io"
	"unsafe"
)

// The scan engine. Instead of dispatching per byte it locates construct
// boundaries with bytes.IndexByte / bytes.Index (memchr under the hood) over
// the buffered window and parses whole constructs in place. Text runs and
// attribute values are views of the window; what cannot be a view
// (entity-decoded payload, CDATA content, attribute lists) is carved from the
// scanner's arenas; element and attribute names go through the symtab/name
// interner. When the window edge cuts a construct the engine refills and
// retries. A text run the window cannot hold accumulates in scratch; a tag
// the window cannot hold grows the window (moreTag). Token limits are checked
// against the token's length either way, never against the window's.
//
// The byte-at-a-time reference engine the scanner started from lives in the
// tests (seed_test.go) as the oracle: the differential harness replays every
// corpus through both at every chunk size and requires the same events, the
// same error classes and the same error offsets.

var (
	piEnd      = []byte("?>")
	commentEnd = []byte("-->")
	cdataEnd   = []byte("]]>")
)

// nameByteTab is isNameByte as a lookup table, for tight name-scanning loops.
var nameByteTab = func() (t [256]bool) {
	for i := 0; i < 256; i++ {
		t[i] = isNameByte(byte(i))
	}
	return
}()

// inContent reports whether character data at the current position is
// document content (inside the root element) and must be emitted.
func (s *Scanner) inContent() bool { return s.state == scanInDocument }

// fastScan consumes input until one event is produced (ok=true), the
// construct yields no event (ok=false), or the input is invalid.
func (s *Scanner) fastScan() (Event, bool, error) {
	if s.state == scanDone {
		return Event{}, false, io.EOF
	}
	if s.pos >= s.end && !s.fill() {
		if s.err != nil {
			return Event{}, false, s.err
		}
		return s.finish()
	}
	if s.buf[s.pos] != '<' {
		if s.emitText && s.inContent() {
			return s.fastText()
		}
		if err := s.fastSkipText(); err != nil {
			return Event{}, false, err
		}
		return Event{}, false, nil
	}
	c, ok := s.peekAt(1)
	if !ok {
		if s.err != nil {
			return Event{}, false, s.err
		}
		s.pos++ // the dangling '<' is consumed
		return Event{}, false, truncatedf("unexpected end of input inside markup")
	}
	switch c {
	case '?':
		s.pos += 2
		return Event{}, false, s.fastPI()
	case '!':
		s.pos += 2
		return Event{}, false, s.fastDeclaration()
	case '/':
		return s.fastTag(s.tryEndTag, "end tag")
	default:
		if s.state == scanAfterRoot {
			return Event{}, false, fmt.Errorf("xmlstream: content after document root")
		}
		if max := s.limits.MaxDepth; max > 0 && len(s.stack) >= max {
			return Event{}, false, &ScanLimitError{What: "nesting", Limit: max, sentinel: ErrTooDeep}
		}
		return s.fastTag(s.tryStartTag, "start tag")
	}
}

// more slides the window and reads more input, reporting whether the
// unconsumed part grew: a construct the window edge cut can then be retried
// in place.
func (s *Scanner) more() bool {
	avail := s.end - s.pos
	return s.fill() && s.end-s.pos > avail
}

// fastText scans one character-data run up to the next '<' (left unconsumed)
// and emits it. A run the window can hold is a view of it, after a refill if
// the edge cut it; only a run larger than the window, or ended by the input
// itself, accumulates in the scratch buffer and is carved from the arena.
func (s *Scanner) fastText() (Event, bool, error) {
	max := s.limits.MaxTokenBytes
	seen := 0 // bytes of the run already searched
	for {
		chunk := s.buf[s.pos:s.end]
		if i := bytes.IndexByte(chunk[seen:], '<'); i >= 0 {
			i += seen
			s.pos += i
			if max > 0 && i > max {
				return Event{}, false, s.tokenTooLarge("text")
			}
			return Event{Kind: Text, Data: s.windowString(chunk[:i])}, true, nil
		}
		if max > 0 && len(chunk) > max {
			return Event{}, false, s.tokenTooLarge("text")
		}
		seen = len(chunk)
		if !s.more() {
			break
		}
	}
	s.textBuf = append(s.textBuf[:0], s.buf[s.pos:s.end]...)
	s.pos = s.end
	for s.fill() {
		// Only a window filled to the brim gets here with input left.
		chunk := s.buf[s.pos:s.end]
		if i := bytes.IndexByte(chunk, '<'); i >= 0 {
			s.textBuf = append(s.textBuf, chunk[:i]...)
			s.pos += i
			break
		}
		s.textBuf = append(s.textBuf, chunk...)
		s.pos = s.end
		if max > 0 && len(s.textBuf) > max {
			return Event{}, false, s.tokenTooLarge("text")
		}
	}
	// End of input or a read error also ends the run: deliver it, like
	// readText.
	if max > 0 && len(s.textBuf) > max {
		return Event{}, false, s.tokenTooLarge("text")
	}
	return Event{Kind: Text, Data: s.decoded(s.textBuf)}, true, nil
}

// decoded carves a raw run out of the text arena, resolving the predefined
// entities when present.
func (s *Scanner) decoded(raw []byte) string {
	if bytes.IndexByte(raw, '&') >= 0 {
		s.scratch = unescapeAppend(s.scratch[:0], raw)
		raw = s.scratch
	}
	return carve(&s.text, raw)
}

// windowString turns a text run or an attribute value that lies inside the
// read window into the event's string: a view of the window — valid as long
// as the window is, which is what the event-lifetime rule promises — unless
// entities have to be resolved, which needs somewhere to write.
func (s *Scanner) windowString(raw []byte) string {
	if len(raw) == 0 {
		return ""
	}
	if bytes.IndexByte(raw, '&') >= 0 {
		return s.decoded(raw)
	}
	return unsafe.String(&raw[0], len(raw))
}

// unescapeAppend is unescapeText over bytes, appending to dst.
func unescapeAppend(dst, src []byte) []byte {
	for i := 0; i < len(src); {
		c := src[i]
		if c != '&' {
			dst = append(dst, c)
			i++
			continue
		}
		end := bytes.IndexByte(src[i:], ';')
		if end < 0 {
			dst = append(dst, src[i:]...)
			break
		}
		switch string(src[i+1 : i+end]) {
		case "lt":
			dst = append(dst, '<')
		case "gt":
			dst = append(dst, '>')
		case "amp":
			dst = append(dst, '&')
		case "apos":
			dst = append(dst, '\'')
		case "quot":
			dst = append(dst, '"')
		default:
			dst = append(dst, src[i:i+end+1]...)
		}
		i += end + 1
	}
	return dst
}

// fastSkipText consumes character data without building anything.
func (s *Scanner) fastSkipText() error {
	for {
		if s.pos >= s.end && !s.fill() {
			return s.err
		}
		if i := bytes.IndexByte(s.buf[s.pos:s.end], '<'); i >= 0 {
			s.pos += i
			return nil
		}
		s.pos = s.end
	}
}

// fastPI consumes a processing instruction after "<?" up to "?>".
func (s *Scanner) fastPI() error {
	for {
		if s.pos >= s.end && !s.fill() {
			if s.err != nil {
				return s.err
			}
			return truncatedf("unterminated processing instruction")
		}
		chunk := s.buf[s.pos:s.end]
		if i := bytes.Index(chunk, piEnd); i >= 0 {
			s.pos += i + 2
			return nil
		}
		if s.eof {
			s.pos = s.end
			return truncatedf("unterminated processing instruction")
		}
		// Keep one byte: a '?' at the window edge may pair with the next
		// window's '>'.
		if take := len(chunk) - 1; take > 0 {
			s.pos += take
		}
		if !s.fill() {
			if s.err != nil {
				return s.err
			}
			s.pos = s.end
			return truncatedf("unterminated processing instruction")
		}
	}
}

// fastDeclaration dispatches "<!" constructs: comments and CDATA sections get
// vectorized scans, DOCTYPE declarations a bracket-tracking loop (they appear
// at most once per document).
func (s *Scanner) fastDeclaration() error {
	if s.hasPrefix("--") {
		s.pos += 2
		return s.fastComment()
	}
	if s.hasPrefix("[CDATA[") {
		s.pos += 7
		return s.fastCDATA()
	}
	return s.skipDoctype()
}

// fastComment consumes a comment after "<!--" up to "-->".
func (s *Scanner) fastComment() error {
	for {
		if s.pos >= s.end && !s.fill() {
			if s.err != nil {
				return s.err
			}
			return truncatedf("unterminated comment")
		}
		chunk := s.buf[s.pos:s.end]
		if i := bytes.Index(chunk, commentEnd); i >= 0 {
			s.pos += i + 3
			return nil
		}
		if s.eof {
			s.pos = s.end
			return truncatedf("unterminated comment")
		}
		if take := len(chunk) - 2; take > 0 {
			s.pos += take
		}
		if !s.fill() {
			if s.err != nil {
				return s.err
			}
			s.pos = s.end
			return truncatedf("unterminated comment")
		}
	}
}

// fastCDATA consumes a CDATA section after "<![CDATA[" up to "]]>", queueing
// the content as a Text event when appropriate. CDATA content is literal: no
// entity resolution.
func (s *Scanner) fastCDATA() error {
	s.textBuf = s.textBuf[:0]
	max := s.limits.MaxTokenBytes
	for {
		if s.pos >= s.end && !s.fill() {
			if s.err != nil {
				return s.err
			}
			return truncatedf("unterminated CDATA section")
		}
		chunk := s.buf[s.pos:s.end]
		if i := bytes.Index(chunk, cdataEnd); i >= 0 {
			s.textBuf = append(s.textBuf, chunk[:i]...)
			s.pos += i + 3
			if max > 0 && len(s.textBuf) > max {
				return s.tokenTooLarge("CDATA section")
			}
			if s.emitText && s.inContent() && len(s.textBuf) > 0 {
				s.pushLive(Event{Kind: Text, Data: carve(&s.text, s.textBuf)})
			}
			return nil
		}
		if s.eof {
			s.pos = s.end
			return truncatedf("unterminated CDATA section")
		}
		if take := len(chunk) - 2; take > 0 {
			s.textBuf = append(s.textBuf, chunk[:take]...)
			s.pos += take
			if max > 0 && len(s.textBuf) > max {
				return s.tokenTooLarge("CDATA section")
			}
		}
		if !s.fill() {
			if s.err != nil {
				return s.err
			}
			s.pos = s.end
			return truncatedf("unterminated CDATA section")
		}
	}
}

// batchEvents caps how many events one fastBatch pass may queue before
// handing back to Next. The ring is allocated with every scanner, and the
// evaluations that buffer nothing hold little else beside the window (about
// 7 KB), so it is sized against their memory bound: 32 events are 2.3 KB —
// what the private name map took, which a scanner with a symbol table no
// longer allocates — where 64 would add 3 % to what such an evaluation holds
// for a dispatch cost already amortized to noise (EXPERIMENTS.md E26).
const batchEvents = 32

// pushPend queues an event produced by the batch loop together with the
// input offset just past its construct — the value InputOffset must report
// when the event is delivered.
func (s *Scanner) pushPend(ev Event, end int) { s.push(ev, s.base+int64(end)) }

// pushLive queues an event produced outside the batch loop; it is delivered
// with the scan position as its offset.
func (s *Scanner) pushLive(ev Event) { s.push(ev, liveOffset) }

// push writes the entry in place: building it first and appending it copies
// the event twice, which showed as a third of a structural scan.
func (s *Scanner) push(ev Event, off int64) {
	n := len(s.pending)
	if n < cap(s.pending) {
		s.pending = s.pending[:n+1]
	} else {
		s.pending = append(s.pending, pendEvent{})
	}
	p := &s.pending[n]
	p.ev, p.off = ev, off
}

// fastBatch is the throughput core of the engine, on every input: it never
// refills the window, so it may run ahead of Next over a reader's window as
// over caller-owned bytes. It tokenizes the common in-document constructs —
// start tags, end tags, character data — in one tight loop with the parse
// state in locals, queueing events into the pending ring instead of returning
// through the per-construct dispatch once per event. Anything unusual (declarations,
// PIs, malformed or window-cut constructs, token/depth limit trips, the
// root's close) is left exactly where it was found for the general path,
// which owns error production; the grammar here mirrors tryStartTag,
// tryEndTag and fastText construct for construct, which is what keeps the
// differential harness green. Reports whether any events were queued.
func (s *Scanner) fastBatch() bool {
	b := s.buf[:s.end]
	i := s.pos
	n := 0
	maxTok := s.limits.MaxTokenBytes
	maxDepth := s.limits.MaxDepth
loop:
	for n < batchEvents && i < len(b) {
		if b[i] != '<' {
			j := bytes.IndexByte(b[i:], '<')
			if j < 0 {
				break // run cut off by end of input: general path owns it
			}
			if s.emitText && s.inContent() {
				if maxTok > 0 && j > maxTok {
					break
				}
				s.pushPend(Event{Kind: Text, Data: s.windowString(b[i : i+j])}, i+j)
				n++
			}
			i += j
			continue
		}
		if i+1 >= len(b) {
			break
		}
		switch c := b[i+1]; {
		case c == '/':
			// End tag, with tryEndTag's grammar.
			ns := i + 2
			j := ns
			for j < len(b) && nameByteTab[b[j]] {
				j++
			}
			if maxTok > 0 && j-ns > maxTok {
				break loop
			}
			k := j
			for k < len(b) && isSpace(b[k]) {
				k++
			}
			if k >= len(b) || b[k] != '>' {
				break loop
			}
			if len(s.stack) == 0 {
				break loop // unexpected end tag: general path reports it
			}
			open := s.stack[len(s.stack)-1]
			if open != string(b[ns:j]) { // no allocation: string compare on []byte
				break loop // mismatched end tag: general path reports it
			}
			sym := s.stackSyms[len(s.stackSyms)-1]
			s.stack = s.stack[:len(s.stack)-1]
			s.stackSyms = s.stackSyms[:len(s.stackSyms)-1]
			s.pushPend(Event{Kind: EndElement, Sym: sym, Name: open}, k+1)
			if len(s.stack) == 0 {
				// The root just closed; the epilog belongs to the general
				// path.
				s.state = scanAfterRoot
				s.pos = k + 1
				return true
			}
			n++
			i = k + 1
		case isNameStart(c):
			// Start tag, with tryStartTag's grammar.
			if maxDepth > 0 && len(s.stack) >= maxDepth {
				break loop
			}
			ns := i + 1
			j := ns + 1
			for j < len(b) && nameByteTab[b[j]] {
				j++
			}
			if maxTok > 0 && j-ns > maxTok {
				break loop
			}
			if j >= len(b) {
				break loop
			}
			tag := b[ns:j]
			var name string
			var sym Sym
			var attrs []Attr
			selfClose := false
			switch c2 := b[j]; {
			case c2 == '>':
				name, sym = s.intern(tag)
				j++
			case c2 == '/':
				k := j + 1
				for k < len(b) && isSpace(b[k]) {
					k++
				}
				if k >= len(b) || b[k] != '>' {
					break loop
				}
				name, sym = s.intern(tag)
				j = k + 1
				selfClose = true
			case isSpace(c2):
				if !s.emitAttrs {
					end, sc, done := trySkipAttrsIn(b, j+1)
					if !done {
						break loop
					}
					name, sym = s.intern(tag)
					j, selfClose = end, sc
				} else {
					end, sc, done, aerr := s.tryAttrs(b, tag, j+1)
					if aerr != nil || !done {
						break loop
					}
					attrs = s.takeAttrsArena()
					name, sym = s.intern(tag)
					j, selfClose = end, sc
				}
			default:
				break loop
			}
			s.state = scanInDocument
			if selfClose {
				// A self-closing root is unreachable here: in-document
				// scanning implies the construct never empties the stack,
				// so no scanAfterRoot transition.
				s.pushPend(Event{Kind: StartElement, Sym: sym, Name: name, Attrs: attrs}, j)
				s.pushPend(Event{Kind: EndElement, Sym: sym, Name: name}, j)
				n += 2
			} else {
				s.stack = append(s.stack, name)
				s.stackSyms = append(s.stackSyms, sym)
				s.pushPend(Event{Kind: StartElement, Sym: sym, Name: name, Attrs: attrs}, j)
				n++
			}
			i = j
		default:
			break loop // '?', '!' or invalid markup: per-construct path owns it
		}
	}
	s.pos = i
	return n > 0
}

// fastTag parses the start or end tag at s.pos with try, which parses it in
// place when the window holds all of it. While the window ends inside the
// tag, moreTag reads on and the tag is parsed again; input that ends inside
// it is a truncation.
func (s *Scanner) fastTag(try func() (Event, bool, bool, error), what string) (Event, bool, error) {
	for {
		ev, ok, complete, err := try()
		if err != nil || complete {
			return ev, ok, err
		}
		if more, err := s.moreTag(what); !more {
			if err == nil {
				err = truncatedf("unterminated %s", what)
			}
			return Event{}, false, err
		}
	}
}

// moreTag reads on for a tag the window ends inside. It returns true once the
// tag is worth parsing again — a '>' arrived, the window is full, or the
// input ended after new bytes — and false when the input ended or failed
// with nothing new. A window the tag fills is doubled, up to twice
// MaxTokenBytes: the window holds a tag whole, so a tag longer than that is
// an oversized token. Each full window is parsed before it grows, so the
// limits of the tag's own tokens trip on their length first.
func (s *Scanner) moreTag(what string) (bool, error) {
	parsed := s.end - s.pos
	for {
		if s.end-s.pos == len(s.buf) && !s.stable && !s.eof && s.err == nil {
			n := 2 * len(s.buf)
			if max := s.limits.MaxTokenBytes; max > 0 {
				n = min(n, 2*max)
			}
			if n <= len(s.buf) {
				return false, s.tokenTooLarge(what)
			}
			grown := make([]byte, n)
			s.end = copy(grown, s.buf[s.pos:s.end])
			s.base += int64(s.pos)
			s.pos, s.dead = 0, 0
			s.buf, s.ownBuf = grown, grown
		}
		seen := s.end - s.pos
		if !s.more() {
			return s.err == nil && s.end-s.pos > parsed, s.err
		}
		if bytes.IndexByte(s.buf[s.pos+seen:s.end], '>') >= 0 || s.end == len(s.buf) {
			return true, nil
		}
	}
}

// tryStartTag attempts to parse the start tag at s.pos (which holds '<', with
// at least one more byte in the window) entirely in place. complete=false
// with a nil error means the window ended before the tag did.
func (s *Scanner) tryStartTag() (ev Event, ok, complete bool, err error) {
	b := s.buf[:s.end]
	i := s.pos + 1
	c := b[i]
	if !isNameStart(c) {
		return Event{}, false, false, fmt.Errorf("xmlstream: invalid character %q at start of tag name", c)
	}
	nameStart := i
	i++
	for i < len(b) && nameByteTab[b[i]] {
		i++
	}
	if max := s.limits.MaxTokenBytes; max > 0 && i-nameStart > max {
		return Event{}, false, false, s.tokenTooLarge("tag name")
	}
	if i >= len(b) {
		return Event{}, false, false, nil
	}
	tag := b[nameStart:i]
	var name string
	var sym Sym
	var attrs []Attr
	selfClose := false
	switch c = b[i]; {
	case c == '>':
		name, sym = s.intern(tag)
		i++
	case c == '/':
		// Whitespace between '/' and '>' is skipped.
		j := i + 1
		for j < len(b) && isSpace(b[j]) {
			j++
		}
		if j >= len(b) {
			return Event{}, false, false, nil
		}
		if b[j] != '>' {
			return Event{}, false, false, fmt.Errorf("xmlstream: unexpected character %q, want %q", b[j], byte('>'))
		}
		name, sym = s.intern(tag)
		i = j + 1
		selfClose = true
	case isSpace(c):
		if !s.emitAttrs {
			end, sc, done := trySkipAttrsIn(b, i+1)
			if !done {
				return Event{}, false, false, nil
			}
			name, sym = s.intern(tag)
			i, selfClose = end, sc
		} else {
			end, sc, done, aerr := s.tryAttrs(b, tag, i+1)
			if aerr != nil {
				return Event{}, false, false, aerr
			}
			if !done {
				return Event{}, false, false, nil
			}
			attrs = s.takeAttrsArena()
			name, sym = s.intern(tag)
			i, selfClose = end, sc
		}
	default:
		return Event{}, false, false, fmt.Errorf("xmlstream: invalid character %q in tag name %q", c, tag)
	}
	s.pos = i
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
	return Event{Kind: StartElement, Sym: sym, Name: name, Attrs: attrs}, true, true, nil
}

// tryAttrs tokenizes the attribute list of <tag ...> within the window,
// filling s.attrBuf. complete=false with nil error means the window ended
// before the tag did.
func (s *Scanner) tryAttrs(b, tag []byte, i int) (end int, selfClose, complete bool, err error) {
	s.attrBuf = s.attrBuf[:0]
	max := s.limits.MaxTokenBytes
	for {
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		if i >= len(b) {
			return 0, false, false, nil
		}
		switch c := b[i]; {
		case c == '>':
			return i + 1, false, true, nil
		case c == '/':
			j := i + 1
			for j < len(b) && isSpace(b[j]) {
				j++
			}
			if j >= len(b) {
				return 0, false, false, nil
			}
			if b[j] != '>' {
				return 0, false, false, fmt.Errorf("xmlstream: unexpected character %q, want %q", b[j], byte('>'))
			}
			return j + 1, true, true, nil
		case !isNameStart(c):
			return 0, false, false, fmt.Errorf("xmlstream: invalid character %q in attribute list of <%s>", c, tag)
		}
		ns := i
		i++
		for i < len(b) && nameByteTab[b[i]] {
			i++
		}
		if max > 0 && i-ns > max {
			return 0, false, false, s.tokenTooLarge("attribute name")
		}
		if i >= len(b) {
			return 0, false, false, nil
		}
		aname, asym := s.intern(b[ns:i])
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		if i >= len(b) {
			return 0, false, false, nil
		}
		if b[i] != '=' {
			return 0, false, false, fmt.Errorf("xmlstream: unexpected character %q, want %q", b[i], byte('='))
		}
		i++
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		if i >= len(b) {
			return 0, false, false, nil
		}
		q := b[i]
		if q != '"' && q != '\'' {
			return 0, false, false, fmt.Errorf("xmlstream: unquoted value for attribute %q in <%s>", aname, tag)
		}
		i++
		vlen := bytes.IndexByte(b[i:], q)
		if vlen < 0 {
			if max > 0 && len(b)-i > max {
				return 0, false, false, s.tokenTooLarge("attribute value")
			}
			return 0, false, false, nil
		}
		raw := b[i : i+vlen]
		i += vlen + 1
		if max > 0 && len(raw) > max {
			return 0, false, false, s.tokenTooLarge("attribute value")
		}
		// Well-formedness: a raw '<' cannot appear in an attribute value (it
		// must be written &lt;); entity-produced '<' passes.
		if bytes.IndexByte(raw, '<') >= 0 {
			return 0, false, false, fmt.Errorf("xmlstream: raw '<' in value of attribute %q in <%s>", aname, tag)
		}
		val := s.windowString(raw)
		for _, a := range s.attrBuf {
			if a.Name == aname {
				return 0, false, false, duplicateAttrf(aname, tag)
			}
		}
		s.attrBuf = append(s.attrBuf, Attr{Name: aname, Sym: asym, Value: val})
	}
}

// takeAttrsArena copies the scratch attribute list into an arena-backed
// slice: the events of one ring are alive together, so they cannot share the
// scratch.
func (s *Scanner) takeAttrsArena() []Attr {
	if len(s.attrBuf) == 0 {
		return nil
	}
	out := s.attrs.take(len(s.attrBuf))
	copy(out, s.attrBuf)
	return out
}

// trySkipAttrsIn consumes attribute text until '>' or '/>' within the window,
// honouring quoted values; the tag is self-closing iff the byte immediately
// before '>' is '/'.
func trySkipAttrsIn(b []byte, i int) (end int, selfClose, complete bool) {
	prev := byte(0)
	for i < len(b) {
		switch c := b[i]; c {
		case '"', '\'':
			j := bytes.IndexByte(b[i+1:], c)
			if j < 0 {
				return 0, false, false
			}
			i += j + 2
			prev = c
		case '>':
			return i + 1, prev == '/', true
		default:
			prev = c
			i++
		}
	}
	return 0, false, false
}

// tryEndTag attempts to parse the end tag at s.pos (which holds '<' followed
// by '/') entirely in place.
func (s *Scanner) tryEndTag() (ev Event, ok, complete bool, err error) {
	b := s.buf[:s.end]
	i := s.pos + 2
	ns := i
	for i < len(b) && nameByteTab[b[i]] {
		i++
	}
	if max := s.limits.MaxTokenBytes; max > 0 && i-ns > max {
		return Event{}, false, false, s.tokenTooLarge("tag name")
	}
	if i >= len(b) {
		return Event{}, false, false, nil
	}
	j := i
	for j < len(b) && isSpace(b[j]) {
		j++
	}
	if j >= len(b) {
		return Event{}, false, false, nil
	}
	if b[j] != '>' {
		if j == i {
			return Event{}, false, false, fmt.Errorf("xmlstream: invalid character %q in end tag", b[j])
		}
		return Event{}, false, false, fmt.Errorf("xmlstream: unexpected character %q, want %q", b[j], byte('>'))
	}
	ev, ok, err = s.commitEndTag(b[ns:i], j+1)
	return ev, ok, true, err
}

// commitEndTag checks the end tag's name against the open-element stack and
// delivers the end event, consuming input up to end.
func (s *Scanner) commitEndTag(name []byte, end int) (Event, bool, error) {
	if len(s.stack) == 0 {
		return Event{}, false, fmt.Errorf("xmlstream: unexpected end tag </%s> with no open element", name)
	}
	open := s.stack[len(s.stack)-1]
	if open != string(name) { // no allocation: string compare on []byte
		return Event{}, false, fmt.Errorf("xmlstream: mismatched end tag: </%s> closes <%s>", name, open)
	}
	sym := s.stackSyms[len(s.stackSyms)-1]
	s.stack = s.stack[:len(s.stack)-1]
	s.stackSyms = s.stackSyms[:len(s.stackSyms)-1]
	if len(s.stack) == 0 {
		s.state = scanAfterRoot
	}
	s.pos = end
	return Event{Kind: EndElement, Sym: sym, Name: open}, true, nil
}
