package xmlstream

import (
	"errors"
	"fmt"
)

// Limits bounds what a single document may make the Scanner buffer. The
// scanner's memory is meant to stay proportional to the document depth
// (§II.1); without caps, two inputs break that promise — a single oversized
// token (a pathological tag name, text run or CDATA section forces the
// token buffer to the token's size) and unbounded nesting (the
// well-formedness stack grows with the depth). Limits turns both into typed
// errors instead of unbounded growth. Caps are on by default; see
// DefaultMaxTokenBytes and DefaultMaxDepth.
type Limits struct {
	// MaxTokenBytes caps the bytes one token may occupy in scanner memory:
	// an element name, a contiguous text run, or a CDATA section. Zero
	// selects DefaultMaxTokenBytes; negative disables the cap.
	MaxTokenBytes int
	// MaxDepth caps the element nesting depth. Zero selects
	// DefaultMaxDepth; negative disables the cap.
	MaxDepth int
}

const (
	// DefaultMaxTokenBytes is the default single-token cap: far above any
	// sane document's names and text runs, far below what would let one
	// token exhaust a serving process.
	DefaultMaxTokenBytes = 16 << 20
	// DefaultMaxDepth is the default nesting cap: two orders of magnitude
	// above the deepest adversarial corpus document (10k), so legitimate
	// deep documents pass while a nesting bomb meets a typed error, not an
	// unbounded stack.
	DefaultMaxDepth = 1 << 20
)

// withDefaults resolves the zero and negative conventions.
func (l Limits) withDefaults() Limits {
	resolve := func(v *int, d int) {
		if *v == 0 {
			*v = d
		} else if *v < 0 {
			*v = 0 // 0 means "no cap" once resolved
		}
	}
	resolve(&l.MaxTokenBytes, DefaultMaxTokenBytes)
	resolve(&l.MaxDepth, DefaultMaxDepth)
	return l
}

// Sentinels every scanner limit or truncation error matches via errors.Is.
var (
	// ErrTokenTooLarge marks a single token over Limits.MaxTokenBytes.
	ErrTokenTooLarge = errors.New("token exceeds size limit")
	// ErrTooDeep marks element nesting over Limits.MaxDepth.
	ErrTooDeep = errors.New("nesting exceeds depth limit")
	// ErrTruncated marks input that ended mid-construct: inside markup, an
	// unterminated comment/PI/CDATA/declaration, or with elements still
	// open. A reader failing with io.ErrUnexpectedEOF and a stream cut
	// mid-token both surface as ErrTruncated.
	ErrTruncated = errors.New("truncated input")
	// ErrDuplicateAttr marks a start tag carrying the same attribute name
	// twice — a well-formedness violation (XML 1.0 §3.1) the attribute-aware
	// scanner rejects rather than silently last-wins resolving.
	ErrDuplicateAttr = errors.New("duplicate attribute")
)

// duplicateAttrf builds the typed error for a repeated attribute name.
func duplicateAttrf(attr string, tag []byte) error {
	return fmt.Errorf("xmlstream: duplicate attribute %q in <%s>: %w", attr, tag, ErrDuplicateAttr)
}

// ScanLimitError reports which scanner limit the input exceeded.
type ScanLimitError struct {
	// What names the construct: "tag name", "attribute name", "attribute
	// value", "text", "CDATA section", "nesting".
	What string
	// Limit is the configured cap the input crossed.
	Limit int
	// sentinel is ErrTokenTooLarge or ErrTooDeep.
	sentinel error
}

func (e *ScanLimitError) Error() string {
	return fmt.Sprintf("xmlstream: %s exceeds the configured limit of %d", e.What, e.Limit)
}

// Unwrap makes errors.Is(err, ErrTokenTooLarge / ErrTooDeep) work.
func (e *ScanLimitError) Unwrap() error { return e.sentinel }

// WithLimits overrides the scanner's default buffering caps.
func WithLimits(l Limits) ScannerOption {
	return func(s *Scanner) { s.limits = l.withDefaults() }
}

// tokenTooLarge builds the typed error for an oversized token.
func (s *Scanner) tokenTooLarge(what string) error {
	return &ScanLimitError{What: what, Limit: s.limits.MaxTokenBytes, sentinel: ErrTokenTooLarge}
}

// truncatedf builds a malformed-input error that matches ErrTruncated.
func truncatedf(format string, args ...any) error {
	return fmt.Errorf("xmlstream: "+format+": %w", append(args, ErrTruncated)...)
}
