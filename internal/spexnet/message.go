// Package spexnet implements the SPEX evaluation model of the paper (§III):
// a regular path expression with qualifiers is translated — in time linear in
// the expression size (Lemma V.1) — into a single-source single-sink DAG of
// pushdown transducers, and the XML stream is pushed through the network one
// document message at a time. Result fragments leave the output transducer
// progressively, in document order, buffered only while their membership in
// the result is undetermined (§III.8).
//
// Of the paper's three message kinds (Definition 2) only one travels on a
// tape here. The document message sits in the network's register (docReg) for
// the whole step and reaches a transducer as a visit. The activation message
// [f] is the tape payload: a formula pointer, always preceding the step's
// event. The condition determination message {c,·} is consumed by the output
// transducers alone, so it is not forwarded hop by hop: its originator hands
// it to the network's condition store (condStore), which applies it to the
// candidates waiting on c.
//
// Nor is every box of Fig. 11 a node. The translation is the paper's, but the
// network that runs is its lowering (lower.go): the transducers that keep
// something across events are nodes, each with one inbox and one output port,
// and the connectors that only copy — SP, JO, and VF→VD at the end of a
// condition — are the ports' destination lists and an edge function.
package spexnet

import (
	"strconv"

	"repro/internal/cond"
)

// det is a condition determination. The paper's {c,true} is
// det{v: c, witness: cond.True()}; the paper's {c,false}, sent by the
// variable-creator when an instance's scope closes, is the scope-exit
// finalization det{v: c}, without a witness. A witness carrying an
// undetermined formula generalizes {c,true} to nested qualifiers: the variable
// is satisfied as soon as the witness formula is (see DESIGN.md §2). A false
// witness is the kill of a negated qualifier.
type det struct {
	v       cond.VarID
	witness *cond.Formula // witness contribution; nil for the finalization
	// from is the originating transducer, for the trace and its out_det count.
	from *detOrigin
}

// final reports whether d is a scope-exit finalization.
func (d det) final() bool { return d.witness == nil }

// String renders the determination in the paper's notation.
func (d det) String() string {
	v := "{v" + strconv.FormatUint(uint64(d.v), 10)
	if d.final() {
		return v + ",close}"
	}
	return v + "," + d.witness.String() + "}"
}
