package xmlstream

import "unsafe"

// What dead storage is overwritten with under spexpoison.
const (
	poisonByte   = 0xDB
	poisonString = "\xdb\xdb\xdb\xdb\xdb\xdb\xdb\xdb"
)

var poisonAttr = Attr{Name: poisonString, Sym: ^Sym(0), Value: poisonString}

// Tape is a reusable buffer of events that owns what they point into: Append
// copies an event's character data, attribute list and attribute values into
// the tape's storage, so the buffered event outlives the scanner window (or
// arena) the original was a view of. It is the one way a holder keeps events
// past their lifetime: the output transducer's candidates, the parallel set's
// broadcast batches. Element and attribute names are not copied — every
// producer interns them or takes them from its caller as ordinary strings.
//
// Storage grows by replacement, not by copying: when a block is full the tape
// takes a larger one and the events appended so far keep pointing into the
// old block. Reset keeps the newest (largest) blocks, so a tape settles at
// the size of what it is asked to hold and appends allocation-free from then
// on. The zero Tape is ready to use.
type Tape struct {
	evs   []Event
	data  []byte
	attrs []Attr
}

// Smallest blocks a tape takes: enough for a leaf answer in one step.
const (
	tapeMinBytes = 256
	tapeMinAttrs = 8
)

// Append copies ev onto the tape.
func (t *Tape) Append(ev *Event) {
	e := *ev
	e.Data = t.str(e.Data)
	if len(e.Attrs) > 0 {
		if cap(t.attrs)-len(t.attrs) < len(e.Attrs) {
			t.attrs = make([]Attr, 0, max(2*cap(t.attrs), len(e.Attrs), tapeMinAttrs))
		}
		off := len(t.attrs)
		t.attrs = append(t.attrs, e.Attrs...)
		e.Attrs = t.attrs[off:len(t.attrs):len(t.attrs)]
		for i := range e.Attrs {
			e.Attrs[i].Value = t.str(e.Attrs[i].Value)
		}
	}
	t.evs = append(t.evs, e)
}

// str copies s into the tape's byte storage.
func (t *Tape) str(s string) string {
	if len(s) == 0 {
		return ""
	}
	if cap(t.data)-len(t.data) < len(s) {
		t.data = make([]byte, 0, max(2*cap(t.data), len(s), tapeMinBytes))
	}
	off := len(t.data)
	t.data = append(t.data, s...)
	return unsafe.String(&t.data[off], len(s))
}

// Events returns the buffered events, valid until Reset.
func (t *Tape) Events() []Event { return t.evs }

// Len returns the number of buffered events.
func (t *Tape) Len() int { return len(t.evs) }

// Size returns the bytes of storage the tape retains across Reset.
func (t *Tape) Size() int {
	return cap(t.evs)*int(unsafe.Sizeof(Event{})) + cap(t.data) + cap(t.attrs)*int(unsafe.Sizeof(Attr{}))
}

// Reset empties the tape, keeping its storage. Every event taken from it is
// dead from here on.
func (t *Tape) Reset() {
	if poison {
		for i := range t.evs {
			t.evs[i] = Event{Kind: Text, Name: poisonString, Data: poisonString}
		}
		for i := range t.attrs {
			t.attrs[i] = poisonAttr
		}
		for i := range t.data {
			t.data[i] = poisonByte
		}
	} else {
		// Stale entries would pin the blocks the tape grew out of.
		clear(t.evs)
		clear(t.attrs)
	}
	t.evs, t.data, t.attrs = t.evs[:0], t.data[:0], t.attrs[:0]
}
