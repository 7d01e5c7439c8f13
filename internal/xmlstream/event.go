// Package xmlstream implements the XML stream data model of the SPEX paper
// (§II.1): a document is conveyed as a sequence of document messages produced
// by a depth-first left-to-right traversal of the document tree, bracketed by
// the start-document message <$> and the end-document message </$>.
//
// The package provides a fast byte-level streaming scanner, an adapter over
// encoding/xml, a serializer, and stream statistics. Start messages carry the
// element's attributes (an extension over the paper's model, enabling
// attribute predicates that decide at the start message); namespaces,
// processing instructions and comments are still deliberately ignored, as in
// the paper — the scanner tolerates and skips them.
package xmlstream

import (
	"fmt"
	"strings"
)

// Kind classifies a stream event.
type Kind uint8

// Event kinds. StartDocument and EndDocument correspond to the paper's <$>
// and </$> messages; StartElement and EndElement to <a> and </a>; Text
// carries character data, which plays no structural role in rpeq evaluation
// but is preserved so that query results serialize faithfully.
const (
	StartDocument Kind = iota
	EndDocument
	StartElement
	EndElement
	Text
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case StartDocument:
		return "start-document"
	case EndDocument:
		return "end-document"
	case StartElement:
		return "start-element"
	case EndElement:
		return "end-element"
	case Text:
		return "text"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Attr is one attribute of a start-element message. Sym is the attribute
// name's interned symbol when the producer resolved it against a Symtab
// (attribute names share the element-label table; values are never interned
// there, since their cardinality is unbounded).
type Attr struct {
	Name  string
	Sym   Sym
	Value string
}

// Event is one document message. Name is the element label for StartElement
// and EndElement; Data is the character data for Text events; Attrs carries
// the element's attributes, in document order, on StartElement events only.
// Data, Attrs and the attribute values of a scanned event may be views of
// scanner storage with the lifetime Scanner documents; Clone detaches them.
//
// Sym is the label's interned symbol when the producer resolved the event
// against a Symtab (the scanner does when built WithSymtab); the zero Sym
// means unresolved, and the evaluating network resolves it against its own
// table. The field fits in the struct's existing padding, so carrying it is
// free.
type Event struct {
	Kind  Kind
	Sym   Sym
	Name  string
	Data  string
	Attrs []Attr
}

// Clone returns a copy of the event that owns its character data, attribute
// list and attribute values: what a consumer keeps when it holds one event
// past the lifetime its producer promises (a Tape holds many). Names are
// shared; producers intern them.
func (e Event) Clone() Event {
	e.Data = strings.Clone(e.Data)
	if len(e.Attrs) > 0 {
		attrs := make([]Attr, len(e.Attrs))
		for i, a := range e.Attrs {
			a.Value = strings.Clone(a.Value)
			attrs[i] = a
		}
		e.Attrs = attrs
	}
	return e
}

// Attr returns the value of the named attribute and whether it is present.
// Lookup is linear: real-world attribute lists are short, and the scanner
// preserves document order.
func (e Event) Attr(name string) (string, bool) {
	for _, a := range e.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// String renders the event in the paper's message notation; attributes
// render in document order inside the start message.
func (e Event) String() string {
	switch e.Kind {
	case StartDocument:
		return "<$>"
	case EndDocument:
		return "</$>"
	case StartElement:
		if len(e.Attrs) == 0 {
			return "<" + e.Name + ">"
		}
		var b strings.Builder
		b.WriteByte('<')
		b.WriteString(e.Name)
		for _, a := range e.Attrs {
			b.WriteByte(' ')
			b.WriteString(a.Name)
			b.WriteString(`="`)
			b.WriteString(EscapeAttr(a.Value))
			b.WriteByte('"')
		}
		b.WriteByte('>')
		return b.String()
	case EndElement:
		return "</" + e.Name + ">"
	case Text:
		return e.Data
	default:
		return "?"
	}
}

// Structural reports whether the event is a document message in the paper's
// sense (an element or document boundary, as opposed to character data).
func (e Event) Structural() bool { return e.Kind != Text }

// Start returns an Event for the start message of an element with the given
// label.
func Start(name string) Event { return Event{Kind: StartElement, Name: name} }

// StartAttrs returns an Event for the start message of an element carrying
// the given attributes, in the given order.
func StartAttrs(name string, attrs ...Attr) Event {
	return Event{Kind: StartElement, Name: name, Attrs: attrs}
}

// End returns an Event for the end message of an element with the given
// label.
func End(name string) Event { return Event{Kind: EndElement, Name: name} }

// Chars returns a Text event carrying the given character data.
func Chars(data string) Event { return Event{Kind: Text, Data: data} }
