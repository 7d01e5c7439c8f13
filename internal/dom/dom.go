// Package dom provides the in-memory document tree the baseline evaluators
// build before querying — the defining cost of the processors the paper
// compares SPEX against (§VI: Saxon and Fxgrep "construct in-memory
// representations of the streams"). SPEX itself never uses this package.
package dom

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/xmlstream"
)

// Kind classifies a node.
type Kind uint8

// Node kinds.
const (
	Document Kind = iota
	Element
	TextNode
)

// Node is one node of the materialized document tree.
type Node struct {
	Kind     Kind
	Name     string // element label; "$" for the document node
	Data     string // character data (TextNode)
	Index    int64  // document-order index: document=0, elements from 1; -1 for text
	Parent   *Node
	Children []*Node
	Attrs    []xmlstream.Attr // element attributes, in document order
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Build materializes the whole stream into a tree and returns the document
// node. Memory is linear in the stream size — the point the paper's
// evaluation makes against this processor class. The tree owns its character
// data and attribute values: a scanner's events are views that die with the
// next one, so each is cloned as it is stored.
func Build(src xmlstream.Source) (*Node, error) {
	doc := &Node{Kind: Document, Name: "$", Index: 0}
	cur := doc
	var next int64 = 1
	started := false
	for {
		ev, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch ev.Kind {
		case xmlstream.StartDocument:
			started = true
		case xmlstream.StartElement:
			n := &Node{Kind: Element, Name: ev.Name, Index: next, Parent: cur, Attrs: ev.Clone().Attrs}
			next++
			cur.Children = append(cur.Children, n)
			cur = n
		case xmlstream.EndElement:
			if cur.Parent == nil {
				return nil, fmt.Errorf("dom: unbalanced end element </%s>", ev.Name)
			}
			cur = cur.Parent
		case xmlstream.EndDocument:
			if cur != doc {
				return nil, fmt.Errorf("dom: end of document with open element <%s>", cur.Name)
			}
		case xmlstream.Text:
			cur.Children = append(cur.Children, &Node{Kind: TextNode, Data: strings.Clone(ev.Data), Index: -1, Parent: cur})
		}
	}
	if !started {
		return nil, fmt.Errorf("dom: empty stream")
	}
	if cur != doc {
		return nil, fmt.Errorf("dom: stream ended with open element <%s>", cur.Name)
	}
	return doc, nil
}

// BuildString parses an XML string; a convenience for tests.
func BuildString(s string) (*Node, error) {
	return Build(xmlstream.NewScanner(stringReader(s)))
}

type sreader struct {
	s   string
	pos int
}

func stringReader(s string) *sreader { return &sreader{s: s} }

func (r *sreader) Read(p []byte) (int, error) {
	if r.pos >= len(r.s) {
		return 0, io.EOF
	}
	n := copy(p, r.s[r.pos:])
	r.pos += n
	return n, nil
}

// ElementChildren calls fn for each element child in document order.
func (n *Node) ElementChildren(fn func(*Node)) {
	for _, c := range n.Children {
		if c.Kind == Element {
			fn(c)
		}
	}
}

// Walk visits n and all descendants in document order.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Count returns the number of element nodes in the subtree (excluding the
// document node itself).
func (n *Node) Count() int64 {
	var count int64
	n.Walk(func(m *Node) {
		if m.Kind == Element {
			count++
		}
	})
	return count
}

// Depth returns the maximum element nesting depth of the subtree.
func (n *Node) Depth() int {
	max := 0
	for _, c := range n.Children {
		if c.Kind != Element {
			continue
		}
		if d := c.Depth() + 1; d > max {
			max = d
		}
	}
	return max
}

// Events serializes the subtree rooted at n back into stream events. For
// the document node this reproduces the whole stream (without the <$>
// brackets, matching what the output transducer buffers for a candidate).
func (n *Node) Events() []xmlstream.Event {
	var out []xmlstream.Event
	var walk func(*Node)
	walk = func(m *Node) {
		switch m.Kind {
		case Element:
			out = append(out, xmlstream.StartAttrs(m.Name, m.Attrs...))
			for _, c := range m.Children {
				walk(c)
			}
			out = append(out, xmlstream.End(m.Name))
		case TextNode:
			out = append(out, xmlstream.Chars(m.Data))
		case Document:
			for _, c := range m.Children {
				walk(c)
			}
		}
	}
	walk(n)
	return out
}
