package xmlstream

import (
	"bufio"
	"io"
	"strings"
	"unsafe"
)

// Writer serializes events back to XML text into a long-lived output stream.
// It is the inverse of Scanner for the feature subset this package models
// (attributes round-trip; PIs and comments do not survive scanning).
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter returns a Writer emitting to w through a buffer sized for a
// stream of many events (Serialize, which renders one answer, has none).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<15)}
}

// WriteEvent serializes one event. StartDocument and EndDocument produce no
// output (they delimit the stream, not the text). Errors are sticky.
func (w *Writer) WriteEvent(ev Event) error {
	if w.err == nil {
		// Rendered in place in the buffer's free space whenever it fits.
		_, w.err = w.w.Write(appendEvent(w.w.AvailableBuffer(), &ev))
	}
	return w.err
}

// Flush writes any buffered output to the underlying writer.
func (w *Writer) Flush() error {
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.err
}

// appendEvent appends the XML text of one event to dst: the one rendering
// path behind Writer and Serialize.
func appendEvent(dst []byte, ev *Event) []byte {
	switch ev.Kind {
	case StartElement:
		dst = append(dst, '<')
		dst = append(dst, ev.Name...)
		for _, a := range ev.Attrs {
			dst = append(dst, ' ')
			dst = append(dst, a.Name...)
			dst = append(dst, '=', '"')
			dst = appendEscaped(dst, a.Value, true)
			dst = append(dst, '"')
		}
		dst = append(dst, '>')
	case EndElement:
		dst = append(dst, '<', '/')
		dst = append(dst, ev.Name...)
		dst = append(dst, '>')
	case Text:
		dst = appendEscaped(dst, ev.Data, false)
	}
	return dst
}

// eventSize is the length of appendEvent's output when nothing needs
// escaping (every escape adds a few bytes).
func eventSize(ev *Event) int {
	switch ev.Kind {
	case StartElement:
		n := len("<>") + len(ev.Name)
		for _, a := range ev.Attrs {
			n += len(` =""`) + len(a.Name) + len(a.Value)
		}
		return n
	case EndElement:
		return len("</>") + len(ev.Name)
	case Text:
		return len(ev.Data)
	}
	return 0
}

// appendEscaped appends s with the markup-significant characters escaped:
// those of a double-quoted attribute value (< & ") or of character data
// (< > &).
func appendEscaped(dst []byte, s string, attr bool) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch c := s[i]; {
		case c == '<':
			esc = "&lt;"
		case c == '&':
			esc = "&amp;"
		case c == '>' && !attr:
			esc = "&gt;"
		case c == '"' && attr:
			esc = "&quot;"
		default:
			continue
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, esc...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}

// EscapeText escapes the characters that are markup-significant in character
// data.
func EscapeText(s string) string {
	if !strings.ContainsAny(s, "<>&") {
		return s
	}
	return asString(appendEscaped(make([]byte, 0, len(s)+8), s, false))
}

// EscapeAttr escapes the characters that are markup-significant inside a
// double-quoted attribute value.
func EscapeAttr(s string) string {
	if !strings.ContainsAny(s, `<&"`) {
		return s
	}
	return asString(appendEscaped(make([]byte, 0, len(s)+8), s, true))
}

// AppendXML appends the XML text of a sequence of events to dst. A caller
// that renders many answers keeps one buffer and pays per answer only for
// what it makes of the bytes.
func AppendXML(dst []byte, events []Event) []byte {
	for i := range events {
		dst = appendEvent(dst, &events[i])
	}
	return dst
}

// Serialize renders a sequence of events as an XML string: straight into one
// buffer sized from the events' payload, which becomes the string.
func Serialize(events []Event) string {
	n := 0
	for i := range events {
		n += eventSize(&events[i])
	}
	if n == 0 {
		return ""
	}
	return asString(AppendXML(make([]byte, 0, n), events))
}

// asString turns a buffer nothing else references into a string without
// copying it (what strings.Builder.String does).
func asString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
