// Package spexnet implements the SPEX evaluation model of the paper (§III):
// a regular path expression with qualifiers is translated — in time linear in
// the expression size (Lemma V.1) — into a single-source single-sink DAG of
// pushdown transducers, and the XML stream is pushed through the network one
// document message at a time. Result fragments leave the output transducer
// progressively, in document order, buffered only while their membership in
// the result is undetermined (§III.8).
package spexnet

import "repro/internal/cond"

// MsgKind classifies messages exchanged between SPEX transducers
// (Definition 2 of the paper).
type MsgKind uint8

const (
	// MsgDoc is the document message: an element or document boundary event
	// (or character data). The event itself never travels — it sits in the
	// network's register (docReg) for the whole step — so on a tape the
	// document message is only a position: see docMark.
	MsgDoc MsgKind = iota
	// MsgActivation is an activation message [f]: it arms the receiving
	// transducer with condition formula f for the document message that
	// immediately follows.
	MsgActivation
	// MsgDet is a condition determination message. The paper's {c,true}
	// is Det{Var: c, Witness: cond.True()}; the paper's {c,false}, sent
	// by the variable-creator when an instance's scope closes, is
	// Det{Var: c, Final: true}. A Witness carrying an undetermined
	// formula generalizes {c,true} to nested qualifiers: the variable is
	// satisfied as soon as the witness formula is (see DESIGN.md §2).
	MsgDet
)

// Message is one message on a transducer tape.
type Message struct {
	Kind    MsgKind
	Final   bool          // MsgDet: scope-exit finalization from VC
	Var     cond.VarID    // MsgDet
	Formula *cond.Formula // MsgActivation
	Witness *cond.Formula // MsgDet: witness contribution from VD
}

// docMark is the document message as a transducer emits it: it fixes where
// the step's event falls among the messages the transducer writes — those
// emitted before it precede the event, those emitted after it follow it. A
// tape records it as an index (tape.mark), not as a stored message.
var docMark = Message{Kind: MsgDoc}

// actMsg wraps a formula as an activation message.
func actMsg(f *cond.Formula) Message { return Message{Kind: MsgActivation, Formula: f} }

// String renders the message in the paper's notation. The document message
// renders as a placeholder: its event is in the register, not in the message.
func (m Message) String() string {
	switch m.Kind {
	case MsgDoc:
		return "<·>"
	case MsgActivation:
		return "[" + m.Formula.String() + "]"
	case MsgDet:
		if m.Final {
			return "{" + cond.Var(m.Var).String() + ",close}"
		}
		return "{" + cond.Var(m.Var).String() + "," + m.Witness.String() + "}"
	default:
		return "?"
	}
}
