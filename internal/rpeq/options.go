package rpeq

// ParseOption configures Parse. The zero configuration parses the rpeq
// surface syntax with no limit clause; options select the XPath front end
// and enable the trailing answer-limit clause.
type ParseOption func(*parseConfig)

type parseConfig struct {
	xpath bool
	limit *int64
}

// WithXPath selects the XPath front end: the expression is parsed as the
// XPath fragment the paper covers (forward steps, structural predicates,
// the rewritten backward axes, text and attribute tests) instead of the
// rpeq surface syntax.
func WithXPath() ParseOption {
	return func(c *parseConfig) { c.xpath = true }
}

// WithLimit enables the trailing answer-limit clause ("limit N", or
// "first" as shorthand for limit 1) and stores the parsed limit in *dst: 0
// when no clause is present (unlimited), N otherwise. The clause keywords
// stay valid labels in every other position: `a.limit` is a path, and a
// bare `limit` query selects children labelled "limit". Without this
// option the clause is rejected, so existing call sites are unaffected.
func WithLimit(dst *int64) ParseOption {
	return func(c *parseConfig) { c.limit = dst }
}

// Parse parses a query into an rpeq tree. By default the source is the
// paper's rpeq surface syntax (§II.2), e.g.
//
//	a.c                 two child steps
//	a+.c+               positive closure steps
//	_*.a[b].c           descendant wildcard, qualifier [b] on step a
//	(a|b).c?            union and optional
//	item[@a and not(b)] attribute test and negated condition
//	_*.item.@id         trailing attribute selection
//
// Operator precedence, tightest first: the postfix operators *, +, ? and
// [qualifier]; then concatenation '.'; then union '|'. Closure (* and +)
// applies to labels only, as in the paper's grammar. Qualifier conditions
// combine paths, text tests and attribute tests with not(...), 'and' and
// 'or' (in that binding order).
//
// Options select the XPath front end (WithXPath) and enable a trailing
// answer-limit clause (WithLimit).
func Parse(src string, opts ...ParseOption) (Node, error) {
	var cfg parseConfig
	for _, o := range opts {
		o(&cfg)
	}
	var (
		n     Node
		limit int64
		err   error
	)
	if cfg.xpath {
		n, limit, err = parseXPath(src, cfg.limit != nil)
	} else {
		n, limit, err = parseRPEQ(src, cfg.limit != nil)
	}
	if err != nil {
		return nil, err
	}
	if err := validateAttrSteps(n); err != nil {
		return nil, err
	}
	if cfg.limit != nil {
		*cfg.limit = limit
	}
	return n, nil
}
