package xmlstream

import "io"

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
