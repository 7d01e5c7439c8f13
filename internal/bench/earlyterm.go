package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/spexnet"
)

// EarlyTermMeasurement is one row of the early-termination figure: a limited
// (`limit k`) query and its unlimited twin on the same document. The figure's
// claim is the earliest-decision property end to end — the limited evaluation
// reads an input-size-independent prefix of the stream (ConsumedElements
// stays flat while TotalElements grows with scale) because the network
// releases itself and the scanner disconnects at the determining event.
type EarlyTermMeasurement struct {
	Dataset string
	Query   string
	Limit   int64
	Scale   float64

	// The unlimited twin: full document size, full answer count, full time.
	TotalElements    int64
	TotalMatches     int64
	UnlimitedElapsed time.Duration

	// The limited pass: the prefix actually consumed and what it cost.
	ConsumedElements int64
	Matches          int64
	Determined       bool
	Elapsed          time.Duration

	// Sink-side lifecycle evidence from the limited pass's registry: with a
	// limit the decision-latency histogram only ever sees the first k
	// answers, so its mass sits at the head of the distribution.
	DecisionCount      int64
	DecisionMeanEvents float64
	EarlyTerminations  int64
}

// EarlyTermQueries are the limited workloads of the figure: the paper's DMOZ
// class-1 query under first-answer and small-k limits.
var EarlyTermQueries = []struct {
	Query string
	Limit int64
}{
	{"_*.Topic.Title", 1},
	{"_*.Topic.Title", 16},
}

// EarlyTermScaleFactors multiply the base scale: the figure runs the same
// limited query on growing documents to exhibit the flat consumed prefix.
var EarlyTermScaleFactors = []float64{1, 2, 4}

// RunEarlyTerm measures the early-termination figure on dmoz-structure at
// base scale × EarlyTermScaleFactors. Every row is self-checking: the
// limited pass's answers must be exactly the first k answers of the
// unlimited pass, in document order (the §V correctness argument applied to
// the truncated evaluation).
func RunEarlyTerm(scale float64, progress io.Writer) ([]EarlyTermMeasurement, error) {
	const ds = "dmoz-structure"
	var out []EarlyTermMeasurement
	for _, factor := range EarlyTermScaleFactors {
		s := scale * factor
		data := Dataset(ds, s).Bytes()
		for _, q := range EarlyTermQueries {
			m, err := runEarlyTermRow(ds, s, data, q.Query, q.Limit)
			if err != nil {
				return out, fmt.Errorf("bench: early-term %s limit %d at scale %g: %w", q.Query, q.Limit, s, err)
			}
			out = append(out, m)
			if progress != nil {
				fmt.Fprintf(progress, "  %-24s limit %-3d scale %-5g  %8d of %8d elements (%.2f%%), %d matches\n",
					q.Query, q.Limit, s, m.ConsumedElements, m.TotalElements,
					100*float64(m.ConsumedElements)/float64(max64(m.TotalElements, 1)), m.Matches)
			}
		}
	}
	return out, nil
}

func runEarlyTermRow(ds string, scale float64, data []byte, query string, limit int64) (EarlyTermMeasurement, error) {
	m := EarlyTermMeasurement{Dataset: ds, Query: query, Limit: limit, Scale: scale}
	plan, err := core.Prepare(query)
	if err != nil {
		return m, err
	}

	// The unlimited twin, collecting answer indices for the prefix check.
	var fullIdx []int64
	start := time.Now()
	fullStats, err := plan.EvaluateReader(bytes.NewReader(data), core.EvalOptions{
		Mode: spexnet.ModeNodes,
		Sink: func(r spexnet.Result) { fullIdx = append(fullIdx, r.Index) },
	})
	if err != nil {
		return m, err
	}
	m.UnlimitedElapsed = time.Since(start)
	m.TotalElements = fullStats.Elements
	m.TotalMatches = fullStats.Output.Matches

	// The limited pass: same document, `limit k` plan, instrumented sink.
	reg := obs.NewMetrics()
	var limIdx []int64
	start = time.Now()
	limStats, err := plan.Limited(limit).EvaluateReader(bytes.NewReader(data), core.EvalOptions{
		Mode:        spexnet.ModeNodes,
		Sink:        func(r spexnet.Result) { limIdx = append(limIdx, r.Index) },
		SinkMetrics: reg,
	})
	if err != nil {
		return m, err
	}
	m.Elapsed = time.Since(start)
	m.ConsumedElements = limStats.Elements
	m.Matches = limStats.Output.Matches
	m.Determined = limStats.Output.Determined
	m.DecisionCount = int64(reg.DecisionLatency.Count())
	if c := reg.DecisionLatency.Count(); c > 0 {
		m.DecisionMeanEvents = float64(reg.DecisionLatency.Sum()) / float64(c)
	}
	m.EarlyTerminations = reg.EarlyTerm.Load()

	// Prefix cross-validation: a limited evaluation answers exactly the
	// first min(k, total) answers of the unlimited one.
	want := fullIdx
	if int64(len(want)) > limit {
		want = want[:limit]
	}
	if int64(len(limIdx)) != int64(len(want)) {
		return m, fmt.Errorf("limited pass delivered %d answers, want the first %d of %d", len(limIdx), len(want), len(fullIdx))
	}
	for i := range want {
		if limIdx[i] != want[i] {
			return m, fmt.Errorf("limited answer %d has index %d, unlimited has %d", i, limIdx[i], want[i])
		}
	}
	if m.TotalMatches > limit && !m.Determined {
		return m, fmt.Errorf("limit %d reached (of %d answers) but the network never reported determination", limit, m.TotalMatches)
	}
	return m, nil
}

// WriteEarlyTermTable renders the figure as text: per scale and limit, the
// consumed prefix against the document, and the limited vs unlimited time.
func WriteEarlyTermTable(w io.Writer, title string, ms []EarlyTermMeasurement) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-20s %5s %7s %12s %12s %7s %12s %12s\n",
		"query", "limit", "scale", "consumed", "total", "read%", "limited", "unlimited")
	for _, m := range ms {
		pct := 100 * float64(m.ConsumedElements) / float64(max64(m.TotalElements, 1))
		fmt.Fprintf(w, "%-20s %5d %7g %12d %12d %6.2f%% %9.2f ms %9.2f ms\n",
			m.Query, m.Limit, m.Scale, m.ConsumedElements, m.TotalElements, pct,
			float64(m.Elapsed.Microseconds())/1000, float64(m.UnlimitedElapsed.Microseconds())/1000)
	}
}

// jsonEarlyTerm is the machine-readable row of BENCH_early_term.json. It
// deliberately has no engine/ns_per_element fields: those describe
// steady-state throughput, and a truncated prefix read is not that.
type jsonEarlyTerm struct {
	Dataset            string  `json:"dataset"`
	Query              string  `json:"query"`
	Limit              int64   `json:"limit"`
	Scale              float64 `json:"scale"`
	TotalElements      int64   `json:"total_elements"`
	TotalMatches       int64   `json:"total_matches"`
	ConsumedElements   int64   `json:"consumed_elements"`
	ConsumedPct        float64 `json:"consumed_pct"`
	Matches            int64   `json:"matches"`
	Determined         bool    `json:"determined"`
	ElapsedNs          int64   `json:"elapsed_ns"`
	UnlimitedElapsedNs int64   `json:"unlimited_elapsed_ns"`
	DecisionCount      int64   `json:"decision_count"`
	DecisionMeanEvents float64 `json:"decision_mean_events"`
	EarlyTerminations  int64   `json:"early_terminations"`
}

// WriteEarlyTermJSON renders the figure's BENCH_early_term.json report.
func WriteEarlyTermJSON(w io.Writer, ms []EarlyTermMeasurement) error {
	out := make([]jsonEarlyTerm, 0, len(ms))
	for _, m := range ms {
		out = append(out, jsonEarlyTerm{
			Dataset:            m.Dataset,
			Query:              m.Query,
			Limit:              m.Limit,
			Scale:              m.Scale,
			TotalElements:      m.TotalElements,
			TotalMatches:       m.TotalMatches,
			ConsumedElements:   m.ConsumedElements,
			ConsumedPct:        100 * float64(m.ConsumedElements) / float64(max64(m.TotalElements, 1)),
			Matches:            m.Matches,
			Determined:         m.Determined,
			ElapsedNs:          m.Elapsed.Nanoseconds(),
			UnlimitedElapsedNs: m.UnlimitedElapsed.Nanoseconds(),
			DecisionCount:      m.DecisionCount,
			DecisionMeanEvents: m.DecisionMeanEvents,
			EarlyTerminations:  m.EarlyTerminations,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
