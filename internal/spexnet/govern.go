package spexnet

import (
	"repro/internal/cond"
	"repro/internal/governor"
	"repro/internal/obs"
)

// govern is the per-network runtime of the resource governor: it holds the
// configured caps, the sticky failure (PolicyFail terminates the run at the
// end of the step that tripped), and the trip accounting surfaced through
// Stats and the spex_governor_* metrics.
//
// All methods run on the evaluation goroutine; the only cross-goroutine
// traffic is the atomic obs counters.
type govern struct {
	cfg     *governor.Config
	metrics *obs.Metrics // may be nil

	// err is the sticky PolicyFail outcome: once set, Step returns it and
	// every check short-circuits, so one run reports exactly one failure.
	err *governor.LimitError
	// shedAll requests a network-level shed (a trip on a resource not
	// attributable to one sink under PolicyShed); Step acts on it after the
	// current propagation completes.
	shedAll bool

	trips    [governor.NumResources]int64
	fails    int64
	degrades int64
	sheds    int64
}

// newGovern returns a runtime for cfg, or nil when cfg constrains nothing —
// the nil govern is the uninstrumented fast path (one pointer test per hook).
func newGovern(cfg *governor.Config, metrics *obs.Metrics) *govern {
	if !cfg.Enabled() {
		return nil
	}
	return &govern{cfg: cfg, metrics: metrics}
}

// rewind forgets the run that was: no failure, no shed, no trip counted.
func (g *govern) rewind() {
	if g != nil {
		*g = govern{cfg: g.cfg, metrics: g.metrics}
	}
}

// limit returns the configured cap for r (0 = unlimited).
func (g *govern) limit(r governor.Resource) int {
	return g.cfg.Limits.Of(r)
}

// active reports whether checks should still run: a failed run stops
// accounting (the one failure is the outcome).
func (g *govern) active() bool { return g != nil && g.err == nil }

// trip records one tripped cap and returns the effective policy for the
// caller to apply. Under PolicyFail it installs the sticky error.
func (g *govern) trip(r governor.Resource, observed int, sub string) governor.Policy {
	p := g.cfg.Effective(r)
	g.trips[r]++
	switch p {
	case governor.PolicyFail:
		g.fails++
		g.fail(r, observed, sub)
	case governor.PolicyDegrade:
		g.degrades++
	case governor.PolicyShed:
		g.sheds++
	}
	g.metrics.NoteGovernor(r, p)
	return p
}

// tripFail records a trip that must fail regardless of the configured
// policy — a degraded sink that still exceeds its cap has nowhere left to
// degrade to.
func (g *govern) tripFail(r governor.Resource, observed int, sub string) {
	g.trips[r]++
	g.fails++
	g.fail(r, observed, sub)
	g.metrics.NoteGovernor(r, governor.PolicyFail)
}

func (g *govern) fail(r governor.Resource, observed int, sub string) {
	if g.err == nil {
		g.err = &governor.LimitError{
			Resource: r,
			Observed: observed,
			Limit:    g.limit(r),
			Policy:   governor.PolicyFail,
			Sub:      sub,
		}
	}
}

// checkFormula is the formula-size hook. Every condition formula the engine
// builds flows through netConfig.or/and or a sink-side Assign, so checking
// here bounds formula growth network-wide (the o(φ) bound of §V, enforced).
// Formula size is not attributable to one sink and count-only mode cannot
// shrink a formula, so PolicyShed sheds the whole network and PolicyDegrade
// falls back to PolicyFail (governor.Resource.Reducible).
func (n *netConfig) checkFormula(f *cond.Formula) {
	g := n.gov
	if f == nil || !g.active() {
		return
	}
	if max := g.limit(governor.ResFormula); max > 0 && f.Size() > max {
		if g.trip(governor.ResFormula, f.Size(), "") == governor.PolicyShed {
			g.shedAll = true
		}
	}
}

// GovernorOutcome summarizes what the governor did during a run.
type GovernorOutcome struct {
	Trips    int64 // limit trips, summed over resources
	Fails    int64 // trips that terminated the run
	Degrades int64 // sinks switched to count-only mode
	Sheds    int64 // sinks (or whole networks) shed
}

func (g *govern) outcome() GovernorOutcome {
	if g == nil {
		return GovernorOutcome{}
	}
	var total int64
	for _, n := range g.trips {
		total += n
	}
	return GovernorOutcome{Trips: total, Fails: g.fails, Degrades: g.degrades, Sheds: g.sheds}
}
