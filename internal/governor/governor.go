// Package governor enforces the paper's complexity bounds at runtime.
//
// SPEX's central theorem (§V) is that evaluating an RPEQ against a stream
// needs space polynomial in the query size and the document depth: the
// transducer stacks are bounded by d (Lemma V.2) and the condition formulas
// by o(φ). Those are asymptotic statements about well-behaved inputs — a
// pathological document (or qualifier) can still grow the candidate queue,
// the buffered answer content, or the per-step message volume without limit.
// This package turns the theorems into operational guarantees: hard caps on
// the resources the bounds speak about, with a configurable policy for what
// happens when a cap trips.
//
// The package is a leaf — it defines the vocabulary (limits, policies,
// typed errors) and internal/spexnet, internal/multi, the public spex API,
// and the spexd server all consume it.
package governor

import (
	"errors"
	"fmt"
	"strings"
)

// Policy selects what happens when a resource limit trips.
type Policy int

const (
	// PolicyFail terminates the run with a *LimitError. The stream stops
	// within the event being processed; partial results already emitted
	// stay emitted.
	PolicyFail Policy = iota

	// PolicyDegrade switches the affected output sink to count-only mode:
	// buffered answer content is released, the document-order queue is
	// eliminated, and from then on only match counts are maintained.
	// Resources that count-only mode cannot reduce (formula size, live
	// condition variables, step messages, document depth) fall back to
	// PolicyFail — degrading cannot help there, and pretending otherwise
	// would turn a hard cap into a silent lie.
	PolicyDegrade

	// PolicyShed drops the affected subscription entirely: its sink
	// releases all state and ignores the rest of the stream. Other
	// subscriptions sharing the network keep running. A single-query run
	// that sheds its only sink still completes the parse, reporting zero
	// further answers.
	PolicyShed
)

// String returns the canonical spelling accepted by ParsePolicy.
func (p Policy) String() string {
	switch p {
	case PolicyFail:
		return "fail"
	case PolicyDegrade:
		return "degrade"
	case PolicyShed:
		return "shed"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses a policy name ("fail", "degrade", "shed"),
// case-insensitively.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "fail", "":
		return PolicyFail, nil
	case "degrade", "count-only", "count":
		return PolicyDegrade, nil
	case "shed", "drop":
		return PolicyShed, nil
	}
	return PolicyFail, fmt.Errorf("governor: unknown policy %q (want fail, degrade, or shed)", s)
}

// Resource identifies which accounted quantity tripped a limit.
type Resource int

const (
	// ResFormula is the size of a single condition formula, in nodes.
	// Bounded by o(φ) for well-formed queries; a qualifier bomb can defeat
	// normalization and grow it superlinearly.
	ResFormula Resource = iota
	// ResCandidates is the population of answer candidates queued for
	// determination or document order in one output sink.
	ResCandidates
	// ResBuffered is the number of buffered answer-content events held for
	// undecided candidates in one output sink.
	ResBuffered
	// ResStepMessages is the number of deliveries the network makes for a
	// single document event: one per transducer the event visits (idle
	// transducers are skipped), one per activation message delivered and one
	// per determination applied by the condition store — the per-event work
	// of Lemma V.2.
	ResStepMessages
	// ResLiveVars is the number of live condition variables in the run's
	// pool (allocated and not yet released).
	ResLiveVars
	// ResDepth is the document nesting depth.
	ResDepth

	// NumResources is the number of distinct Resource values; usable as an
	// array length for per-resource accounting.
	NumResources = int(ResDepth) + 1
)

// String returns a stable snake_case name, used as a Prometheus label.
func (r Resource) String() string {
	switch r {
	case ResFormula:
		return "formula_size"
	case ResCandidates:
		return "candidates"
	case ResBuffered:
		return "buffered_events"
	case ResStepMessages:
		return "step_messages"
	case ResLiveVars:
		return "live_vars"
	case ResDepth:
		return "depth"
	}
	return fmt.Sprintf("resource_%d", int(r))
}

// Reducible reports whether count-only degradation can shrink the resource.
// Irreducible resources fall back to PolicyFail under PolicyDegrade.
func (r Resource) Reducible() bool {
	return r == ResCandidates || r == ResBuffered
}

// Limits holds the hard caps. The zero value means "no limit" for every
// resource, so a nil or zero Config is always safe to pass around.
type Limits struct {
	// MaxFormulaSize caps the node count of any single condition formula.
	MaxFormulaSize int
	// MaxCandidates caps the queued candidate population per output sink.
	MaxCandidates int
	// MaxBufferedEvents caps buffered answer-content events per output sink.
	MaxBufferedEvents int
	// MaxStepMessages caps the deliveries made per document event
	// (transducer visits, activations delivered, determinations applied).
	MaxStepMessages int
	// MaxLiveVars caps live condition variables in the run's pool.
	MaxLiveVars int
	// MaxDepth caps the document nesting depth.
	MaxDepth int
}

// Zero reports whether no limit is set.
func (l Limits) Zero() bool { return l == Limits{} }

// Of returns the configured cap for r (0 = unlimited).
func (l Limits) Of(r Resource) int {
	switch r {
	case ResFormula:
		return l.MaxFormulaSize
	case ResCandidates:
		return l.MaxCandidates
	case ResBuffered:
		return l.MaxBufferedEvents
	case ResStepMessages:
		return l.MaxStepMessages
	case ResLiveVars:
		return l.MaxLiveVars
	case ResDepth:
		return l.MaxDepth
	}
	return 0
}

// Config couples limits with the policy applied when one trips.
type Config struct {
	Limits Limits
	Policy Policy
}

// Enabled reports whether the config actually constrains anything. A nil
// receiver is a valid, disabled config.
func (c *Config) Enabled() bool { return c != nil && !c.Limits.Zero() }

// Effective returns the policy that will actually be applied for r:
// PolicyDegrade falls back to PolicyFail on irreducible resources.
func (c *Config) Effective(r Resource) Policy {
	if c == nil {
		return PolicyFail
	}
	if c.Policy == PolicyDegrade && !r.Reducible() {
		return PolicyFail
	}
	return c.Policy
}

// ErrResourceLimit is the sentinel matched by errors.Is for every
// *LimitError, whatever the resource or policy.
var ErrResourceLimit = errors.New("resource limit exceeded")

// LimitError reports a tripped resource cap. It is returned from runs under
// PolicyFail and carried on shed subscriptions so callers can distinguish
// "no answers" from "shed".
type LimitError struct {
	Resource Resource // which accounted quantity tripped
	Observed int      // the value that tripped the cap
	Limit    int      // the configured cap
	Policy   Policy   // the policy that was applied
	Sub      string   // subscription / sink name, when attributable
}

func (e *LimitError) Error() string {
	var b strings.Builder
	b.WriteString("governor: ")
	b.WriteString(e.Resource.String())
	fmt.Fprintf(&b, " limit exceeded (%d > %d)", e.Observed, e.Limit)
	if e.Sub != "" {
		fmt.Fprintf(&b, " for %q", e.Sub)
	}
	fmt.Fprintf(&b, "; policy %s", e.Policy)
	return b.String()
}

// Is makes errors.Is(err, governor.ErrResourceLimit) true for any LimitError.
func (e *LimitError) Is(target error) bool { return target == ErrResourceLimit }
