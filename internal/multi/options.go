package multi

import (
	"repro/internal/governor"
	"repro/internal/obs"
)

// Option configures a MergedSet (the parallel wrapper takes the same
// settings through ParallelOptions).
type Option func(*engineConfig)

// engineConfig is the resolved option set.
type engineConfig struct {
	gov     *governor.Config
	metrics *obs.Metrics
	traceID string
}

func resolveOptions(opts []Option) engineConfig {
	var cfg engineConfig
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}

// WithGovernor attaches the resource governor to the set's network:
// formula/candidate/buffer/step/variable/depth caps with a fail, degrade or
// shed policy. A nil (or all-zero) config evaluates ungoverned.
func WithGovernor(cfg *governor.Config) Option {
	return func(c *engineConfig) { c.gov = cfg }
}

// WithMetrics binds a registry for governor trip accounting: the
// spex_governor_* counters and the sink-side lifecycle histograms. It does
// not enable full per-event instrumentation.
func WithMetrics(m *obs.Metrics) Option {
	return func(c *engineConfig) { c.metrics = m }
}

// WithTraceID stamps every trace record of the set's network with the
// stream-scoped trace identifier, correlating one stream pass with the
// caller's own records. Empty leaves the records unstamped.
func WithTraceID(id string) Option {
	return func(c *engineConfig) { c.traceID = id }
}
