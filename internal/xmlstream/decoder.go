package xmlstream

import (
	"encoding/xml"
	"io"
)

// Decoder adapts encoding/xml's token stream to the Event stream of this
// package. It exists as a conformance reference for the hand-written Scanner
// (the two are cross-checked in tests) and as a robust fallback for inputs
// the fast scanner does not accept.
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

// Source is the interface shared by Scanner, Decoder and in-memory event
// sequences: a pull-based stream of events terminated by io.EOF.
type Source interface {
	Next() (Event, error)
}

// SliceSource serves a fixed sequence of events; useful in tests and for
// replaying buffered fragments.
type SliceSource struct {
	Events []Event
	pos    int
}

// Next implements Source.
func (s *SliceSource) Next() (Event, error) {
	if s.pos >= len(s.Events) {
		return Event{}, io.EOF
	}
	ev := s.Events[s.pos]
	s.pos++
	return ev, nil
}

// Reset rewinds the source to the first event, so one pre-scanned sequence
// can be replayed many times (the ablation benchmarks measure the evaluation
// pipeline without re-tokenizing the input).
func (s *SliceSource) Reset() { s.pos = 0 }

// Collect drains src into a slice of events that own their payload (a
// scanner's events are only views). It is intended for tests and small
// documents; it defeats streaming by construction.
func Collect(src Source) ([]Event, error) {
	var out []Event
	for {
		ev, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, ev.Clone())
	}
}
