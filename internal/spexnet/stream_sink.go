package spexnet

import "repro/internal/xmlstream"

// StreamSink receives answers progressively, event by event: the
// "progressive processing" of the paper's abstract taken to its limit —
// once an answer at the head of the document-order queue is known to be in
// the result, its content is forwarded as it arrives instead of being
// buffered until its subtree closes. Only answers behind an undecided or
// unfinished earlier answer are buffered (and replayed when they reach the
// head).
type StreamSink interface {
	// ResultStart announces the answer rooted at the node with the given
	// document-order index and label.
	ResultStart(index int64, name string)
	// ResultEvent delivers one content event of the current answer,
	// beginning with its own start event. The event is the scanner's, or a
	// replayed candidate buffer's: valid during the call only.
	ResultEvent(ev xmlstream.Event)
	// ResultEnd closes the current answer.
	ResultEnd(index int64)
}

// funcStreamSink adapts three funcs to StreamSink; any may be nil.
type funcStreamSink struct {
	start func(int64, string)
	event func(xmlstream.Event)
	end   func(int64)
}

func (s funcStreamSink) ResultStart(i int64, n string) {
	if s.start != nil {
		s.start(i, n)
	}
}

func (s funcStreamSink) ResultEvent(ev xmlstream.Event) {
	if s.event != nil {
		s.event(ev)
	}
}

func (s funcStreamSink) ResultEnd(i int64) {
	if s.end != nil {
		s.end(i)
	}
}

// NewStreamSink builds a StreamSink from callbacks; any may be nil.
func NewStreamSink(start func(int64, string), event func(xmlstream.Event), end func(int64)) StreamSink {
	return funcStreamSink{start: start, event: event, end: end}
}
