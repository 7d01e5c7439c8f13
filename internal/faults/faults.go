// Package faults injects controlled failures into the streaming pipeline:
// torn reads, stalls, truncation and outright errors at the byte layer
// (Reader), the same at the event layer (Source), plus lazily generated
// pathological documents (unbounded nesting, oversized tokens). The
// evaluator's robustness claims — every fault yields a typed error, never a
// hang, a panic or a silently wrong answer — are tested by driving these
// wrappers through the whole stack.
package faults

import (
	"errors"
	"io"
	"time"

	"repro/internal/xmlstream"
)

// ErrInjected is the default error delivered by FailAt/FailAfter faults;
// tests assert errors.Is against it to prove the fault — not some
// coincidental failure — surfaced.
var ErrInjected = errors.New("faults: injected fault")

// Reader wraps an io.Reader with byte-level faults. The zero value of every
// fault field disables that fault, so a zero-configured Reader is a
// transparent pass-through.
type Reader struct {
	// R is the underlying stream.
	R io.Reader
	// TornReads caps every Read at one byte: the pathological fragmentation
	// of a congested connection. Consumers must produce identical results,
	// only slower.
	TornReads bool
	// TruncateAt, when positive, ends the stream with a clean io.EOF after
	// that many bytes — the silent mid-document cut a dropped connection
	// produces. The scanner must diagnose the truncation (ErrTruncated),
	// not report a short document.
	TruncateAt int64
	// FailAt, when positive, fails the read at that byte offset with Err.
	FailAt int64
	// Err is the error FailAt delivers; nil selects ErrInjected.
	Err error
	// StallAt and StallFor introduce one synchronous delay when the offset
	// reaches StallAt: a stalled peer. StallFor of zero disables it.
	StallAt  int64
	StallFor time.Duration

	off     int64
	stalled bool
}

func (f *Reader) fault() error {
	if f.Err != nil {
		return f.Err
	}
	return ErrInjected
}

func (f *Reader) Read(p []byte) (int, error) {
	if f.StallFor > 0 && !f.stalled && f.off >= f.StallAt {
		f.stalled = true
		time.Sleep(f.StallFor)
	}
	if f.FailAt > 0 && f.off >= f.FailAt {
		return 0, f.fault()
	}
	if f.TruncateAt > 0 && f.off >= f.TruncateAt {
		return 0, io.EOF
	}
	if f.TornReads && len(p) > 1 {
		p = p[:1]
	}
	// Never read past a configured fault point, so the fault lands at its
	// exact offset instead of somewhere inside an oversized chunk.
	if f.FailAt > 0 {
		if rem := f.FailAt - f.off; int64(len(p)) > rem {
			p = p[:rem]
		}
	}
	if f.TruncateAt > 0 {
		if rem := f.TruncateAt - f.off; int64(len(p)) > rem {
			p = p[:rem]
		}
	}
	n, err := f.R.Read(p)
	f.off += int64(n)
	return n, err
}

// Source wraps an xmlstream.Source with event-level faults, for consumers
// fed pre-scanned events (the set engine, push-mode runs) where a
// byte-level wrapper cannot reach.
type Source struct {
	// S is the underlying event source.
	S xmlstream.Source
	// CutAfter, when positive, ends the stream with io.EOF after that many
	// events — a silent event-level truncation. The consumer's
	// close/finish path must detect the imbalance.
	CutAfter int64
	// FailAfter, when positive, fails Next with Err after that many events.
	FailAfter int64
	// Err is the error FailAfter delivers; nil selects ErrInjected.
	Err error
	// StallAfter and StallFor introduce one synchronous delay at the given
	// event count.
	StallAfter int64
	StallFor   time.Duration

	n       int64
	stalled bool
}

func (f *Source) Next() (xmlstream.Event, error) {
	if f.StallFor > 0 && !f.stalled && f.n >= f.StallAfter {
		f.stalled = true
		time.Sleep(f.StallFor)
	}
	if f.FailAfter > 0 && f.n >= f.FailAfter {
		if f.Err != nil {
			return xmlstream.Event{}, f.Err
		}
		return xmlstream.Event{}, ErrInjected
	}
	if f.CutAfter > 0 && f.n >= f.CutAfter {
		return xmlstream.Event{}, io.EOF
	}
	ev, err := f.S.Next()
	if err == nil {
		f.n++
	}
	return ev, err
}
