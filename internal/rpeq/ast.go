// Package rpeq implements the query language of the SPEX paper (§II.2):
// regular path expressions with qualifiers, generated by the grammar
//
//	rpeq ::= ε | label | label* | label+ | (rpeq|rpeq) | (rpeq . rpeq)
//	       | rpeq? | rpeq [ rpeq ]
//
// where label is an element label or the wildcard "_" matching every label.
// The package provides a lexer and parser for the paper's surface syntax
// (e.g. "_*.a[b].c"), an abstract syntax tree, desugaring of the derived
// operators, and an XPath-fragment front-end for the child/descendant
// fragment the paper identifies (§II.2: forward steps child and descendant
// with structural qualifiers).
package rpeq

import (
	"fmt"
	"strings"
)

// Wildcard is the label that matches every element label.
const Wildcard = "_"

// Node is an rpeq abstract syntax tree node.
type Node interface {
	fmt.Stringer
	// Size returns the number of grammar constructs in the subtree; the
	// paper's n in "rpeq(n)" (Lemma V.1).
	Size() int
	node()
}

// Empty is the ε expression: it selects its context node itself.
type Empty struct{}

// Label is a single child step selecting children with the given label;
// Name == Wildcard matches every label.
type Label struct{ Name string }

// Plus is the positive closure label+ selecting descendants reachable by one
// or more label steps. Per the grammar, closure applies only to labels.
type Plus struct{ Label *Label }

// Star is the Kleene closure label*, equivalent to (label+ | ε).
type Star struct{ Label *Label }

// Concat is the concatenation (left . right).
type Concat struct{ Left, Right Node }

// Union is the union (left | right).
type Union struct{ Left, Right Node }

// Optional is rpeq?, equivalent to (rpeq | ε).
type Optional struct{ Expr Node }

// Qualifier is base[cond]: base filtered by the structural qualifier cond,
// which holds iff cond selects a non-empty node set below the candidate.
type Qualifier struct {
	Base Node
	Cond Node
}

func (*Empty) node()     {}
func (*Label) node()     {}
func (*Plus) node()      {}
func (*Star) node()      {}
func (*Concat) node()    {}
func (*Union) node()     {}
func (*Optional) node()  {}
func (*Qualifier) node() {}

// Matches reports whether the label step matches the element name.
func (l *Label) Matches(name string) bool {
	return l.Name == Wildcard || l.Name == name
}

func (*Empty) Size() int       { return 1 }
func (*Label) Size() int       { return 1 }
func (p *Plus) Size() int      { return 1 + p.Label.Size() }
func (s *Star) Size() int      { return 1 + s.Label.Size() }
func (c *Concat) Size() int    { return 1 + c.Left.Size() + c.Right.Size() }
func (u *Union) Size() int     { return 1 + u.Left.Size() + u.Right.Size() }
func (o *Optional) Size() int  { return 1 + o.Expr.Size() }
func (q *Qualifier) Size() int { return 1 + q.Base.Size() + q.Cond.Size() }

func (*Empty) String() string   { return "ε" }
func (l *Label) String() string { return l.Name }
func (p *Plus) String() string  { return p.Label.String() + "+" }
func (s *Star) String() string  { return s.Label.String() + "*" }
func (c *Concat) String() string {
	right := c.Right.String()
	if _, ok := c.Right.(*Concat); ok {
		// Parenthesize a right-nested concatenation (as predicate
		// lowering produces) so the left-associative parser rebuilds the
		// same tree.
		right = "(" + right + ")"
	}
	return c.Left.String() + "." + right
}
func (u *Union) String() string {
	if isCondition(u) {
		// A qualifier's disjunction of conditions: the path union '|'
		// cannot hold a not(...) or a comparison, the boolean 'or' can.
		return "(" + u.Left.String() + " or " + u.Right.String() + ")"
	}
	return "(" + u.Left.String() + "|" + u.Right.String() + ")"
}

// isCondition reports whether n is a condition rather than a path: a negation
// or text comparison, or a union with one among its alternatives.
func isCondition(n Node) bool {
	switch n := n.(type) {
	case *CondNot, *TextTest:
		return true
	case *Union:
		return isCondition(n.Left) || isCondition(n.Right)
	}
	return false
}
func (o *Optional) String() string {
	if needsParens(o.Expr) {
		return "(" + o.Expr.String() + ")?"
	}
	return o.Expr.String() + "?"
}
func (q *Qualifier) String() string {
	base := q.Base.String()
	if needsParens(q.Base) {
		base = "(" + base + ")"
	}
	return base + "[" + q.Cond.String() + "]"
}

func needsParens(n Node) bool {
	switch n.(type) {
	case *Concat, *Union:
		return true
	}
	return false
}

// Desugar rewrites the derived operators into the kernel language, applying
// the identities the paper states: label* ≡ (label+ | ε) and rpeq? ≡
// (rpeq | ε). The result contains no Star or Optional node.
func Desugar(n Node) Node {
	switch n := n.(type) {
	case *Empty, *Label, *Plus, *Following, *Preceding, *AttrTest, *AttrStep:
		return n
	case *TextTest:
		return &TextTest{Path: Desugar(n.Path), Op: n.Op, Value: n.Value}
	case *CondNot:
		return &CondNot{Expr: Desugar(n.Expr)}
	case *Star:
		return &Union{Left: &Plus{Label: n.Label}, Right: &Empty{}}
	case *Optional:
		return &Union{Left: Desugar(n.Expr), Right: &Empty{}}
	case *Concat:
		return &Concat{Left: Desugar(n.Left), Right: Desugar(n.Right)}
	case *Union:
		return &Union{Left: Desugar(n.Left), Right: Desugar(n.Right)}
	case *Qualifier:
		return &Qualifier{Base: Desugar(n.Base), Cond: Desugar(n.Cond)}
	default:
		panic(fmt.Sprintf("rpeq: unknown node type %T", n))
	}
}

// Equal reports structural equality of two trees.
func Equal(a, b Node) bool {
	switch a := a.(type) {
	case *Empty:
		_, ok := b.(*Empty)
		return ok
	case *Label:
		bl, ok := b.(*Label)
		return ok && a.Name == bl.Name
	case *Plus:
		bp, ok := b.(*Plus)
		return ok && a.Label.Name == bp.Label.Name
	case *Star:
		bs, ok := b.(*Star)
		return ok && a.Label.Name == bs.Label.Name
	case *Concat:
		bc, ok := b.(*Concat)
		return ok && Equal(a.Left, bc.Left) && Equal(a.Right, bc.Right)
	case *Union:
		bu, ok := b.(*Union)
		return ok && Equal(a.Left, bu.Left) && Equal(a.Right, bu.Right)
	case *Optional:
		bo, ok := b.(*Optional)
		return ok && Equal(a.Expr, bo.Expr)
	case *Qualifier:
		bq, ok := b.(*Qualifier)
		return ok && Equal(a.Base, bq.Base) && Equal(a.Cond, bq.Cond)
	case *Following:
		bf, ok := b.(*Following)
		return ok && a.Test == bf.Test
	case *Preceding:
		bp, ok := b.(*Preceding)
		return ok && a.Test == bp.Test
	case *TextTest:
		bt, ok := b.(*TextTest)
		return ok && a.Op == bt.Op && a.Value == bt.Value && Equal(a.Path, bt.Path)
	case *AttrTest:
		bt, ok := b.(*AttrTest)
		return ok && attrExprEqual(a.Pred, bt.Pred)
	case *AttrStep:
		bs, ok := b.(*AttrStep)
		return ok && a.Name == bs.Name
	case *CondNot:
		bn, ok := b.(*CondNot)
		return ok && Equal(a.Expr, bn.Expr)
	default:
		return false
	}
}

// Stats describes the structural profile of an expression, used by the
// complexity experiments of §V.
type Stats struct {
	Size       int // grammar constructs (Lemma V.1's n)
	Steps      int // label, plus and star steps
	Closures   int // plus and star steps
	Qualifiers int // qualifier constructs
	Unions     int // union constructs
	AttrTests  int // attribute tests and attribute steps
}

// Analyze computes Stats for n.
func Analyze(n Node) Stats {
	s := Stats{Size: n.Size()}
	var walk func(Node)
	walk = func(n Node) {
		switch n := n.(type) {
		case *Label, *Following, *Preceding:
			s.Steps++
		case *Plus:
			s.Steps++
			s.Closures++
		case *Star:
			s.Steps++
			s.Closures++
		case *Concat:
			walk(n.Left)
			walk(n.Right)
		case *Union:
			s.Unions++
			walk(n.Left)
			walk(n.Right)
		case *Optional:
			walk(n.Expr)
		case *Qualifier:
			s.Qualifiers++
			walk(n.Base)
			walk(n.Cond)
		case *TextTest:
			walk(n.Path)
		case *AttrTest:
			s.AttrTests++
		case *AttrStep:
			s.Steps++
			s.AttrTests++
		case *CondNot:
			walk(n.Expr)
		}
	}
	walk(n)
	return s
}

// MustParse parses src and panics on error; for tests and package-level
// query tables.
func MustParse(src string) Node {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}

// Canonical renders the expression with explicit grouping so that distinct
// trees render distinctly; used for network caching keys.
func Canonical(n Node) string {
	var b strings.Builder
	var walk func(Node)
	walk = func(n Node) {
		switch n := n.(type) {
		case *Empty:
			b.WriteString("ε")
		case *Label:
			b.WriteString(n.Name)
		case *Plus:
			b.WriteString(n.Label.Name)
			b.WriteByte('+')
		case *Star:
			b.WriteString(n.Label.Name)
			b.WriteByte('*')
		case *Concat:
			b.WriteByte('(')
			walk(n.Left)
			b.WriteByte('.')
			walk(n.Right)
			b.WriteByte(')')
		case *Union:
			b.WriteByte('(')
			walk(n.Left)
			b.WriteByte('|')
			walk(n.Right)
			b.WriteByte(')')
		case *Optional:
			b.WriteByte('(')
			walk(n.Expr)
			b.WriteString(")?")
		case *Qualifier:
			b.WriteByte('(')
			walk(n.Base)
			b.WriteString(")[")
			walk(n.Cond)
			b.WriteByte(']')
		case *Following:
			b.WriteString(n.String())
		case *Preceding:
			b.WriteString(n.String())
		case *TextTest:
			b.WriteByte('(')
			walk(n.Path)
			b.WriteString(n.Op.String())
			b.WriteString(quoteString(n.Value))
			b.WriteByte(')')
		case *AttrTest:
			b.WriteByte('{')
			b.WriteString(n.Pred.String())
			b.WriteByte('}')
		case *AttrStep:
			b.WriteByte('@')
			b.WriteString(n.Name)
		case *CondNot:
			b.WriteString("!(")
			walk(n.Expr)
			b.WriteByte(')')
		}
	}
	walk(n)
	return b.String()
}
