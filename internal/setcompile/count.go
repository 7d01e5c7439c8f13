package setcompile

import (
	"strconv"

	"repro/internal/rpeq"
)

// nodeCounter is a static dry run of the network builder's compilation
// arithmetic (spexnet compileNew and its lowering): it walks expressions
// allocating synthetic tape numbers and counting the transducers each
// construct contributes, memoizing on (input tape, canonical form) exactly as
// the builder's hash-consing does. Only what keeps state across events is a
// transducer of the lowered network; Fig. 11's connectors — SP, JO, the
// variable filter and determinant — are wiring and count nothing, but the two
// branches of a split are still tapes of their own, as they are to the
// builder's memo. Counting with one shared counter across a query set
// therefore gives the merged network's degree less its sinks
// (MergeStats.MergedTransducers adds those; TestMergedTransducersIsDegree in
// internal/spexnet holds the two together), and counting each query with a
// fresh counter the naive per-query total — no network is instantiated for
// either.
type nodeCounter struct {
	memo  map[string]int // input tape | canonical form → output tape
	tapes int
	nodes int
}

func newNodeCounter() *nodeCounter {
	return &nodeCounter{memo: make(map[string]int)}
}

// tape allocates a fresh synthetic tape number.
func (c *nodeCounter) tape() int {
	c.tapes++
	return c.tapes
}

// node counts one transducer and returns its output tape.
func (c *nodeCounter) node() int {
	c.nodes++
	return c.tape()
}

// count returns the output tape of expr compiled from tape in, adding the
// transducers of every subexpression not already compiled from that tape.
func (c *nodeCounter) count(n rpeq.Node, in int) int {
	key := strconv.Itoa(in) + "|" + rpeq.Canonical(n)
	if out, ok := c.memo[key]; ok {
		return out
	}
	out := c.countNew(n, in)
	c.memo[key] = out
	return out
}

// countNew mirrors compileNew's per-construct topology.
func (c *nodeCounter) countNew(n rpeq.Node, in int) int {
	switch n := n.(type) {
	case *rpeq.Empty:
		return in
	case *rpeq.AttrStep:
		// The terminal attribute step is the sink's business.
		return in
	case *rpeq.Label, *rpeq.Plus, *rpeq.AttrTest, *rpeq.Following, *rpeq.Preceding:
		return c.node()
	case *rpeq.Star:
		c.tape() // pass-through branch
		c.count(&rpeq.Plus{Label: n.Label}, c.tape())
		return c.tape() // behind the join
	case *rpeq.Optional:
		c.tape()
		c.count(n.Expr, c.tape())
		return c.tape()
	case *rpeq.Concat:
		return c.count(n.Right, c.count(n.Left, in))
	case *rpeq.Union:
		left, right := c.tape(), c.tape()
		c.count(n.Left, left)
		c.count(n.Right, right)
		c.tape()        // behind the join
		return c.node() // UN
	case *rpeq.Qualifier:
		if rpeq.Nullable(n.Cond) {
			return c.count(n.Base, in)
		}
		if cn, ok := n.Cond.(*rpeq.CondNot); ok {
			return c.countNegQualifier(n.Base, cn, in)
		}
		return c.countQualifier(n.Base, n.Cond, in)
	case *rpeq.TextTest:
		c.count(n.Path, in)
		return c.node() // text comparison
	case *rpeq.CondNot:
		return c.countNegQualifier(&rpeq.Empty{}, n, in)
	default:
		return in
	}
}

// countQualifier mirrors base[cond], positive or negated: VC, then the
// pass-through branch — the qualifier's output — and the condition branch.
func (c *nodeCounter) countQualifier(base, cond rpeq.Node, in int) int {
	c.count(base, in)
	c.node() // VC
	out := c.tape()
	c.count(cond, c.tape())
	return out
}

// countNegQualifier mirrors compileNegQualifier.
func (c *nodeCounter) countNegQualifier(base rpeq.Node, cn *rpeq.CondNot, in int) int {
	if rpeq.Nullable(cn.Expr) {
		c.count(base, in)
		return c.node() // drop node: the condition is statically false
	}
	return c.countQualifier(base, cn.Expr, in)
}
