package rpeq

import (
	"fmt"
	"strings"
)

// parseXPath translates an expression in the XPath fragment the paper
// covers (§II.2: forward steps child and descendant, structural
// qualifiers) into an rpeq tree; Parse in options.go is the exported entry
// point. Supported syntax:
//
//	/a/b             child steps from the root
//	//a              descendant step ("_*.a")
//	a//b             descendant between steps
//	*                wildcard name test
//	a[b//c]          structural predicate (itself in the same fragment)
//	a[@s="x"]        attribute predicates: [@a], [@a="v"], [@a!="v"],
//	                 [@a*="v"] (contains), [b/@a] and comparisons on it
//	a[x and not(y)]  predicates combined with 'or', 'and', 'not(...)'
//	//item/@id       trailing attribute selection (@name, attribute::name)
//	a | //b          union of paths
//	//a/parent::b    backward steps parent:: and ancestor[-or-self]::,
//	//a/..           rewritten into the forward fragment (§II.2 via
//	//b/ancestor::a  "XPath: Looking Forward"); also self::,
//	                 descendant[-or-self]:: spelled explicitly
//
// A leading '/' is implied: paths are evaluated from the document root, as
// rpeq expressions are. Backward steps inside predicates may not reach
// above the predicate's context node. allowLimit additionally accepts a
// trailing "limit N" / "first" answer-limit clause.
func parseXPath(src string, allowLimit bool) (Node, int64, error) {
	p := &xpathParser{src: src}
	n, err := p.parseUnion()
	if err != nil {
		return nil, 0, err
	}
	var limit int64
	if allowLimit {
		if limit, err = p.parseLimitClause(); err != nil {
			return nil, 0, err
		}
	}
	p.skipSpace()
	if p.pos < len(p.src) {
		return nil, 0, fmt.Errorf("rpeq: xpath: unexpected %q at offset %d", p.src[p.pos], p.pos)
	}
	return n, limit, nil
}

// parseLimitClause consumes a trailing "limit N" or "first" keyword clause.
// The keywords must stand alone as words (followed by space, a digit, or the
// end of input) so that name tests like "firstname" are unaffected.
func (p *xpathParser) parseLimitClause() (int64, error) {
	p.skipSpace()
	rest := p.src[p.pos:]
	switch {
	case strings.HasPrefix(rest, "first") && (len(rest) == len("first") || !isLabelByte(rest[len("first")])):
		p.pos += len("first")
		return 1, nil
	case strings.HasPrefix(rest, "limit") && (len(rest) == len("limit") || !isLabelByte(rest[len("limit")])):
		p.pos += len("limit")
		p.skipSpace()
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		if p.pos == start {
			return 0, fmt.Errorf("rpeq: xpath: expected a number after 'limit' at offset %d", start)
		}
		var n int64
		for _, c := range []byte(p.src[start:p.pos]) {
			n = n*10 + int64(c-'0')
			if n > 1<<40 {
				return 0, fmt.Errorf("rpeq: xpath: limit at offset %d is out of range", start)
			}
		}
		if n <= 0 {
			return 0, fmt.Errorf("rpeq: xpath: limit must be a positive integer at offset %d", start)
		}
		return n, nil
	}
	return 0, nil
}

type xpathParser struct {
	src      string
	pos      int
	relative bool // parsing a predicate's relative path
}

func (p *xpathParser) skipSpace() {
	for p.pos < len(p.src) && isExprSpace(p.src[p.pos]) {
		p.pos++
	}
}

func (p *xpathParser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

// parseUnion ::= path ('|' path)*
func (p *xpathParser) parseUnion() (Node, error) {
	left, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if p.peek() != '|' {
			return left, nil
		}
		p.pos++
		right, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		left = &Union{Left: left, Right: right}
	}
}

// parsePath ::= ('/' | '//')? step (('/' | '//') step)*
//
// The parser folds the path left to right into an rpeq expression; backward
// steps rewrite the expression built so far (see reverse.go). A path parsed
// for a predicate is relative: its context is the qualifier's base node,
// which backward steps may not escape.
func (p *xpathParser) parsePath() (Node, error) {
	p.skipSpace()
	var expr Node
	descendant := false
	switch {
	case strings.HasPrefix(p.src[p.pos:], "//"):
		p.pos += 2
		descendant = true
	case p.peek() == '/':
		p.pos++
	}
	for {
		var err error
		expr, err = p.parseStep(expr, descendant)
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		switch {
		case strings.HasPrefix(p.src[p.pos:], "//"):
			p.pos += 2
			descendant = true
		case p.peek() == '/':
			p.pos++
			descendant = false
		default:
			return expr, nil
		}
	}
}

// xpath axes understood by parseStep.
type xpathAxis uint8

const (
	axisChild xpathAxis = iota
	axisSelf
	axisParent
	axisAncestor
	axisAncestorOrSelf
	axisDescendant
	axisDescendantOrSelf
	axisFollowing
	axisPreceding
	axisAttribute
)

var axisNames = []struct {
	name string
	axis xpathAxis
}{
	// Longest first, so prefix matching is unambiguous.
	{"descendant-or-self", axisDescendantOrSelf},
	{"ancestor-or-self", axisAncestorOrSelf},
	{"descendant", axisDescendant},
	{"following", axisFollowing},
	{"preceding", axisPreceding},
	{"attribute", axisAttribute},
	{"ancestor", axisAncestor},
	{"parent", axisParent},
	{"child", axisChild},
	{"self", axisSelf},
}

// parseStep parses one step and folds it into prev (the expression for the
// path so far; nil at the path start). descendant marks a step reached via
// "//".
func (p *xpathParser) parseStep(prev Node, descendant bool) (Node, error) {
	p.skipSpace()
	axis := axisChild
	var test string
	switch {
	case strings.HasPrefix(p.src[p.pos:], ".."):
		p.pos += 2
		axis, test = axisParent, Wildcard
	case p.peek() == '.':
		p.pos++
		axis, test = axisSelf, Wildcard
	default:
		if p.peek() == '@' {
			// '@name' abbreviates attribute::name.
			p.pos++
			axis = axisAttribute
		} else {
			// Optional explicit axis.
			for _, a := range axisNames {
				if strings.HasPrefix(p.src[p.pos:], a.name+"::") {
					p.pos += len(a.name) + 2
					axis = a.axis
					break
				}
			}
		}
		switch {
		case p.peek() == '*':
			p.pos++
			test = Wildcard
		case p.pos < len(p.src) && isLabelStart(p.src[p.pos]):
			start := p.pos
			for p.pos < len(p.src) && isLabelByte(p.src[p.pos]) {
				p.pos++
			}
			test = p.src[start:p.pos]
		default:
			return nil, fmt.Errorf("rpeq: xpath: expected a name test at offset %d", p.pos)
		}
	}

	expr, err := p.applyStep(prev, descendant, axis, test)
	if err != nil {
		return nil, err
	}

	for {
		p.skipSpace()
		if p.peek() != '[' {
			return expr, nil
		}
		p.pos++
		cond, err := p.parseCondOr()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != ']' {
			return nil, fmt.Errorf("rpeq: xpath: expected ']' at offset %d", p.pos)
		}
		p.pos++
		if expr, err = lowerPredicate(expr, cond); err != nil {
			return nil, err
		}
	}
}

// condKeyword consumes the given bare word if it stands alone (followed by
// a non-name byte), so name tests like "android" are unaffected.
func (p *xpathParser) condKeyword(kw string) bool {
	p.skipSpace()
	rest := p.src[p.pos:]
	if strings.HasPrefix(rest, kw) && (len(rest) == len(kw) || !isLabelByte(rest[len(kw)])) {
		p.pos += len(kw)
		return true
	}
	return false
}

// parseCondOr ::= condAnd ('or' condAnd)*
//
// Precedence, tightest first: not, and, or; '|' inside a term is path
// union and binds tighter still.
func (p *xpathParser) parseCondOr() (condExpr, error) {
	left, err := p.parseCondAnd()
	if err != nil {
		return nil, err
	}
	for p.condKeyword("or") {
		right, err := p.parseCondAnd()
		if err != nil {
			return nil, err
		}
		left = condOr{left: left, right: right}
	}
	return left, nil
}

// parseCondAnd ::= condTerm ('and' condTerm)*
func (p *xpathParser) parseCondAnd() (condExpr, error) {
	left, err := p.parseCondTerm()
	if err != nil {
		return nil, err
	}
	for p.condKeyword("and") {
		right, err := p.parseCondTerm()
		if err != nil {
			return nil, err
		}
		left = condAnd{left: left, right: right}
	}
	return left, nil
}

// parseCondTerm ::= 'not' '(' cond ')' | '(' cond ')' | path comparison?
//
// where comparison ::= ('=' | '!=' | '*=') string.
// A parenthesized group is unambiguous: relative paths in this fragment
// cannot start with '(' . The word `not` is a keyword only when '('
// follows; [not] still tests for children named "not".
func (p *xpathParser) parseCondTerm() (condExpr, error) {
	p.skipSpace()
	if rest := p.src[p.pos:]; strings.HasPrefix(rest, "not") && (len(rest) == len("not") || !isLabelByte(rest[len("not")])) {
		save := p.pos
		p.pos += len("not")
		p.skipSpace()
		if p.peek() == '(' {
			p.pos++
			inner, err := p.parseCondOr()
			if err != nil {
				return nil, err
			}
			p.skipSpace()
			if p.peek() != ')' {
				return nil, fmt.Errorf("rpeq: xpath: expected ')' closing not(...) at offset %d", p.pos)
			}
			p.pos++
			return condNeg{expr: inner}, nil
		}
		p.pos = save
	}
	if p.peek() == '(' {
		p.pos++
		inner, err := p.parseCondOr()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return nil, fmt.Errorf("rpeq: xpath: expected ')' at offset %d", p.pos)
		}
		p.pos++
		return inner, nil
	}
	sub := &xpathParser{src: p.src, pos: p.pos, relative: true}
	path, err := sub.parseUnion()
	if err != nil {
		return nil, err
	}
	p.pos = sub.pos
	p.skipSpace()
	// Optional comparison: [path = "v"] / [path != "v"] / [path *= "v"],
	// against text content, or against the attribute value when the path
	// ends in an attribute step.
	if op, ok := p.parseTextOp(); ok {
		value, err := p.parseStringLiteral()
		if err != nil {
			return nil, err
		}
		return condLeaf{path: path, op: op, value: value, hasCmp: true}, nil
	}
	return condLeaf{path: path}, nil
}

// applyStep folds one axis::test step into the path expression so far.
func (p *xpathParser) applyStep(prev Node, descendant bool, axis xpathAxis, test string) (Node, error) {
	// "//" before a non-child axis means descendant-or-self::* first.
	descend := func(e Node) Node {
		if e == nil {
			return &Star{Label: &Label{Name: Wildcard}}
		}
		return &Concat{Left: e, Right: &Star{Label: &Label{Name: Wildcard}}}
	}
	switch axis {
	case axisChild:
		step := Node(&Label{Name: test})
		if descendant {
			step = &Concat{Left: &Star{Label: &Label{Name: Wildcard}}, Right: step}
		}
		return concat(prev, step), nil

	case axisDescendant:
		base := prev
		if descendant {
			base = descend(prev)
		}
		return concat(base, &Concat{Left: &Star{Label: &Label{Name: Wildcard}}, Right: &Label{Name: test}}), nil

	case axisDescendantOrSelf:
		base := prev
		if descendant {
			base = descend(prev)
		}
		if test == Wildcard {
			return descend(base), nil
		}
		// self part requires the current node to carry the test.
		desc := concat(base, &Concat{Left: &Star{Label: &Label{Name: Wildcard}}, Right: &Label{Name: test}})
		if base == nil {
			return nil, fmt.Errorf("rpeq: xpath: descendant-or-self::%s at the path start is not expressible (the root has no label)", test)
		}
		if self := restrictLabel(base, test); self != nil {
			return &Union{Left: desc, Right: self}, nil
		}
		return desc, nil

	case axisSelf:
		base := prev
		if descendant {
			base = descend(prev)
		}
		if test == Wildcard {
			if base == nil {
				return &Empty{}, nil
			}
			return base, nil
		}
		if base == nil {
			return nil, fmt.Errorf("rpeq: xpath: self::%s on the %s is not expressible", test, p.contextName())
		}
		restricted := restrictLabel(base, test)
		if restricted == nil {
			return nil, fmt.Errorf("rpeq: xpath: self::%s after %s can never match", test, base)
		}
		return restricted, nil

	case axisParent:
		base := prev
		if descendant {
			base = descend(prev)
		}
		if base == nil {
			return nil, fmt.Errorf("rpeq: xpath: parent:: at the path start escapes the %s", p.contextName())
		}
		return RewriteParent(base, test, p.relative)

	case axisAncestor, axisAncestorOrSelf:
		base := prev
		if descendant {
			base = descend(prev)
		}
		if base == nil {
			return nil, fmt.Errorf("rpeq: xpath: ancestor:: at the path start escapes the %s", p.contextName())
		}
		return RewriteAncestor(base, test, axis == axisAncestorOrSelf, p.relative)

	case axisAttribute:
		if test == Wildcard {
			return nil, fmt.Errorf("rpeq: xpath: attribute::* is not supported; name the attribute")
		}
		step := Node(&AttrStep{Name: test})
		if descendant {
			step = &Concat{Left: &Star{Label: &Label{Name: Wildcard}}, Right: step}
		}
		return concat(prev, step), nil

	case axisFollowing, axisPreceding:
		base := prev
		if descendant {
			base = descend(prev)
		}
		if p.relative {
			// The axes reach outside the predicate's subtree, which the
			// scope-bound qualifier machinery cannot evaluate (a
			// qualifier instance is finalized when its scope closes).
			return nil, fmt.Errorf("rpeq: xpath: %s:: inside a predicate escapes the qualifier scope; not supported",
				map[xpathAxis]string{axisFollowing: "following", axisPreceding: "preceding"}[axis])
		}
		if base == nil {
			base = &Empty{}
		}
		var step Node
		if axis == axisFollowing {
			step = &Following{Test: test}
		} else {
			step = &Preceding{Test: test}
		}
		return concat(base, step), nil

	default:
		return nil, fmt.Errorf("rpeq: xpath: unsupported axis")
	}
}

// parseTextOp consumes a comparison operator if one follows.
func (p *xpathParser) parseTextOp() (TextOp, bool) {
	switch {
	case strings.HasPrefix(p.src[p.pos:], "!="):
		p.pos += 2
		return TextNeq, true
	case strings.HasPrefix(p.src[p.pos:], "*="):
		p.pos += 2
		return TextContains, true
	case p.peek() == '=':
		p.pos++
		return TextEq, true
	default:
		return TextEq, false
	}
}

// parseStringLiteral consumes a single- or double-quoted string.
func (p *xpathParser) parseStringLiteral() (string, error) {
	p.skipSpace()
	quote := p.peek()
	if quote != '"' && quote != '\'' {
		return "", fmt.Errorf("rpeq: xpath: expected a string literal at offset %d", p.pos)
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != quote {
		p.pos++
	}
	if p.pos >= len(p.src) {
		return "", fmt.Errorf("rpeq: xpath: unterminated string literal at offset %d", start)
	}
	value := p.src[start:p.pos]
	p.pos++
	return value, nil
}

func (p *xpathParser) contextName() string {
	if p.relative {
		return "predicate context"
	}
	return "document root"
}
