// Command spexbench regenerates the tables behind the paper's Figures 14
// and 15 (§VI) and the constant-memory observation.
//
// Usage:
//
//	spexbench                 # both figures at the default scales
//	spexbench -fig 14         # Figure 14 only (MONDIAL + WordNet, 3 engines)
//	spexbench -fig 15         # Figure 15 only (DMOZ, SPEX; baselines refuse)
//	spexbench -fig mem        # the §VI memory table
//	spexbench -fig adversarial
//	                          # the governor attack corpus: each shape
//	                          # count-validated ungoverned, then re-run
//	                          # under resource caps (DESIGN.md §9)
//	spexbench -fig obs-overhead -max-overhead 10
//	                          # the instrumentation ablation: the same
//	                          # workload with and without a live metrics
//	                          # registry; fails if the instrumented leg
//	                          # loses more than 10% throughput
//	spexbench -fig early-term
//	                          # the early-termination figure: a `limit k`
//	                          # query reads an input-size-independent
//	                          # prefix of growing DMOZ documents; every
//	                          # row is prefix-validated against the
//	                          # unlimited evaluation
//	spexbench -fig value-pred
//	                          # the value-predicate figure: the same
//	                          # selection over the tickets corpus as an
//	                          # attribute predicate (decided at the start
//	                          # message), a structural qualifier and a
//	                          # text test; -check pins the pairs to equal
//	                          # answers and the attribute rows to zero
//	                          # decision latency
//	spexbench -scale 1        # paper-sized documents (DMOZ takes a while)
//	spexbench -check          # exit non-zero if any engine reports zero
//	                          # answers (CI shape check, not a timing one)
//	spexbench -http :6060     # serve live metrics (Prometheus + JSON) and
//	                          # net/http/pprof while the benchmarks run
//	spexbench -json DIR       # also write machine-readable BENCH_*.json
//
// With -v, long runs print a periodic progress line (events/sec, depth,
// matches, heap) sourced from the same live metrics registry.
//
// Absolute numbers will not match the paper's 2002 hardware; the shape —
// which engine wins where, and that the in-memory engines cannot process
// the DMOZ documents under the memory budget while SPEX streams them — is
// the reproduction target. See EXPERIMENTS.md.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "spexbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("spexbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig      = fs.String("fig", "all", "which experiment: 14, 15, mem, adversarial, obs-overhead, early-term, value-pred, all")
		scale    = fs.Float64("scale", 0, "document scale; 0 = defaults (1 for Fig. 14, 0.05 for Fig. 15)")
		verbose  = fs.Bool("v", false, "stream per-measurement progress and a periodic live-metrics line")
		fullDMOZ = fs.Bool("full-dmoz", false, "run Fig. 15 at the paper's full scale (slow; equivalent to -scale 1)")
		httpAddr = fs.String("http", "", "serve live metrics and pprof on this address while running (e.g. :6060)")
		jsonDir  = fs.String("json", "", "write machine-readable BENCH_*.json reports into this directory")
		check    = fs.Bool("check", false, "fail if any non-skipped measurement reports zero answers")
		maxOver  = fs.Float64("max-overhead", 0, "obs-overhead gate: fail if the instrumented leg loses more than this percent throughput vs NoObs (0 = report only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var progress io.Writer
	if *verbose {
		progress = stderr
	}

	// Live observability: one metrics registry shared by every SPEX
	// measurement of the session — the HTTP endpoints and the periodic
	// progress line both read it while a measurement streams.
	var observer *bench.Observer
	if *verbose || *httpAddr != "" {
		observer = &bench.Observer{Metrics: obs.NewMetrics(), Progress: progress}
	}
	if *httpAddr != "" {
		shutdown, err := serveMetrics(*httpAddr, observer.Metrics, stderr)
		if err != nil {
			return err
		}
		defer shutdown()
	}

	writeJSON := func(name string, ms []bench.Measurement) error {
		if *jsonDir == "" || len(ms) == 0 {
			return nil
		}
		f, err := os.Create(filepath.Join(*jsonDir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return bench.WriteJSON(f, ms)
	}

	runFig14 := *fig == "14" || *fig == "all"
	runFig15 := *fig == "15" || *fig == "all"
	runMem := *fig == "mem" || *fig == "all"
	runAdv := *fig == "adversarial" || *fig == "adv" || *fig == "all"
	runObs := *fig == "obs-overhead" || *fig == "obs" || *fig == "all"
	runEarly := *fig == "early-term" || *fig == "early" || *fig == "all"
	runValuePred := *fig == "value-pred" || *fig == "value" || *fig == "all"

	// checkAnswers is the CI shape check: every measurement that actually
	// ran must have found answers on these workloads.
	checkAnswers := func(figure string, ms []bench.Measurement) error {
		if !*check {
			return nil
		}
		for _, m := range ms {
			if m.Skipped == "" && m.Matches == 0 {
				return fmt.Errorf("%s: %s on %s %q reported zero answers", figure, m.Engine, m.Dataset, m.Query)
			}
		}
		return nil
	}

	if runFig14 {
		s := *scale
		if s == 0 {
			s = 1
		}
		ms, err := figure14(stdout, progress, s, observer)
		if err != nil {
			return err
		}
		if err := writeJSON("BENCH_fig14.json", ms); err != nil {
			return err
		}
		if err := checkAnswers("fig14", ms); err != nil {
			return err
		}
	}
	if runFig15 {
		s := *scale
		if s == 0 {
			s = 0.05
		}
		if *fullDMOZ {
			s = 1
		}
		ms, err := figure15(stdout, progress, s, observer)
		if err != nil {
			return err
		}
		if err := writeJSON("BENCH_fig15.json", ms); err != nil {
			return err
		}
		if err := checkAnswers("fig15", ms); err != nil {
			return err
		}
	}
	if runMem {
		s := *scale
		if s == 0 {
			s = 0.2
		}
		if err := memoryTable(stdout, s); err != nil {
			return err
		}
	}
	if runAdv {
		// The golden corpus at scale 1 is deliberately hostile (the
		// qualifier bomb alone runs for minutes); default to a tenth, the
		// same opt-in pattern as Fig. 15's -full-dmoz.
		s := *scale
		if s == 0 {
			s = 0.1
		}
		ms, err := figureAdversarial(stdout, progress, s, observer)
		if err != nil {
			return err
		}
		if err := writeJSON("BENCH_adversarial.json", ms); err != nil {
			return err
		}
		// The sweep is self-checking (RunAdversarial pins every ungoverned
		// match count); checkAnswers adds the shared zero-answer shape gate.
		if err := checkAnswers("adversarial", ms); err != nil {
			return err
		}
	}
	if runObs {
		s := *scale
		if s == 0 {
			s = 0.05
		}
		if err := figureObsOverhead(stdout, progress, s, *jsonDir, *maxOver, *check); err != nil {
			return err
		}
	}
	if runEarly {
		s := *scale
		if s == 0 {
			s = 0.02
		}
		if err := figureEarlyTerm(stdout, progress, s, *jsonDir, *check); err != nil {
			return err
		}
	}
	if runValuePred {
		s := *scale
		if s == 0 {
			s = 1
		}
		if err := figureValuePred(stdout, progress, s, *jsonDir, *check); err != nil {
			return err
		}
	}
	return nil
}

// figureValuePred runs the value-predicate figure (EXPERIMENTS.md E20): the
// same selection over the tickets corpus as an attribute predicate, a
// structural qualifier and a text test. With -check the pairs must agree on
// the answer set and the attribute rows must decide at the start message.
func figureValuePred(out, progress io.Writer, scale float64, jsonDir string, check bool) error {
	ms, err := bench.RunValuePred(scale, progress)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("\nValue predicates — tickets at scale %g: attribute vs structural vs text phrasing", scale)
	bench.WriteValuePredTable(out, title, ms)
	if jsonDir != "" {
		f, err := os.Create(filepath.Join(jsonDir, "BENCH_value_pred.json"))
		if err != nil {
			return err
		}
		err = bench.WriteValuePredJSON(f, ms)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if check {
		return bench.CheckValuePred(ms)
	}
	return nil
}

// figureEarlyTerm runs the early-termination figure (EXPERIMENTS.md E19):
// `limit k` queries on growing DMOZ documents, each prefix-validated against
// its unlimited twin inside the harness. The runs are self-checking; -check
// additionally requires the limited passes to have found answers and
// actually terminated early.
func figureEarlyTerm(out, progress io.Writer, scale float64, jsonDir string, check bool) error {
	ms, err := bench.RunEarlyTerm(scale, progress)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("\nEarly termination — dmoz-structure at scale %g × {1,2,4}, limited vs unlimited", scale)
	bench.WriteEarlyTermTable(out, title, ms)
	if jsonDir != "" {
		f, err := os.Create(filepath.Join(jsonDir, "BENCH_early_term.json"))
		if err != nil {
			return err
		}
		err = bench.WriteEarlyTermJSON(f, ms)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if check {
		for _, m := range ms {
			if m.Matches == 0 {
				return fmt.Errorf("early-term: %s limit %d at scale %g reported zero answers", m.Query, m.Limit, m.Scale)
			}
			if m.TotalMatches > m.Limit && (!m.Determined || m.ConsumedElements >= m.TotalElements) {
				return fmt.Errorf("early-term: %s limit %d at scale %g did not terminate early (consumed %d of %d elements, determined=%v)",
					m.Query, m.Limit, m.Scale, m.ConsumedElements, m.TotalElements, m.Determined)
			}
		}
	}
	return nil
}

// figureObsOverhead runs the instrumentation ablation (EXPERIMENTS.md E18)
// and, when maxOver > 0, gates on the measured throughput loss.
func figureObsOverhead(out, progress io.Writer, scale float64, jsonDir string, maxOver float64, check bool) error {
	const iters = 5
	r, err := bench.RunObsOverhead(scale, iters, progress)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("\nObs overhead — instrumented vs NoObs (scale %g, best of %d)", scale, iters)
	bench.WriteObsOverheadTable(out, title, r)
	if jsonDir != "" {
		f, err := os.Create(filepath.Join(jsonDir, "BENCH_obs_overhead.json"))
		if err != nil {
			return err
		}
		err = bench.WriteObsOverheadJSON(f, r)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if check {
		if r.Matches == 0 {
			return fmt.Errorf("obs-overhead: zero answers on %s %q", r.Dataset, r.Query)
		}
		if r.DecisionLatencyCount == 0 || r.CandidateLifetimeCount == 0 {
			return fmt.Errorf("obs-overhead: lifecycle histograms empty (decisions=%d, lifetimes=%d)",
				r.DecisionLatencyCount, r.CandidateLifetimeCount)
		}
	}
	if maxOver > 0 && r.OverheadPct > maxOver {
		return fmt.Errorf("obs-overhead: instrumented leg lost %.1f%% throughput, budget is %.1f%% (noobs %.0f events/s, instrumented %.0f)",
			r.OverheadPct, maxOver, r.NoObsEventsPerSec, r.InstrumentedEventsPerSec)
	}
	return nil
}

// figureAdversarial runs the adversarial-corpus sweep: every governor
// attack shape ungoverned (count-validated) and under the bench cap set.
func figureAdversarial(out, progress io.Writer, scale float64, o *bench.Observer) ([]bench.Measurement, error) {
	ms, err := bench.RunAdversarial(scale, progress, o)
	if err != nil {
		return ms, err
	}
	caps := bench.AdversarialLimits()
	title := fmt.Sprintf("\nAdversarial corpus (scale %g) — governed leg caps: candidates ≤ %d, depth ≤ %d",
		scale, caps.MaxCandidates, caps.MaxDepth)
	bench.WriteAdversarialTable(out, title, ms)
	return ms, nil
}

// serveMetrics starts the observability endpoint: /metrics (Prometheus
// text), /vars (JSON snapshot) and /debug/pprof. It returns a shutdown
// function that drains in-flight scrapes before closing the listener.
func serveMetrics(addr string, m *obs.Metrics, stderr io.Writer) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := newMetricsServer(obs.NewServeMux(m))
	fmt.Fprintf(stderr, "spexbench: serving metrics on http://%s/metrics (JSON on /vars, profiles under /debug/pprof/)\n", ln.Addr())
	go func() { _ = srv.Serve(ln) }()
	var once sync.Once
	shutdown := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				_ = srv.Close()
			}
		})
	}
	// An interrupted run still drains the endpoint instead of abandoning
	// the listener: shut down gracefully, then re-raise the signal so the
	// process exits with its default disposition.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s, ok := <-sigc
		if !ok {
			return
		}
		fmt.Fprintf(stderr, "spexbench: %v received, closing metrics endpoint\n", s)
		shutdown()
		signal.Stop(sigc)
		if p, err := os.FindProcess(os.Getpid()); err == nil {
			_ = p.Signal(s)
		}
	}()
	return shutdown, nil
}

// newMetricsServer builds the sidecar http.Server with the slow-client
// protections a long benchmark run needs: a header-read bound so a stuck
// dialer cannot pin a connection goroutine, and an idle timeout so
// abandoned keep-alive scrapes are reclaimed.
func newMetricsServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
}

// figure14 runs the MONDIAL and WordNet workloads with all three engines.
func figure14(out, progress io.Writer, scale float64, o *bench.Observer) ([]bench.Measurement, error) {
	var all []bench.Measurement
	for _, part := range []struct {
		name      string
		workloads []bench.Workload
	}{
		{"mondial", bench.Fig14Mondial},
		{"wordnet", bench.Fig14WordNet},
	} {
		doc := bench.Dataset(part.name, scale)
		data := doc.Bytes()
		info := mustInfo(data)
		ms, err := bench.RunFigure(part.workloads, data, bench.Engines, progress, o)
		if err != nil {
			return all, err
		}
		title := fmt.Sprintf("\nFigure 14 — %s (scale %g: %.1f MB, %d elements, depth %d)",
			part.name, scale, float64(len(data))/(1<<20), info.Elements, info.MaxDepth)
		bench.WriteTable(out, title, ms)
		all = append(all, ms...)
	}
	return all, nil
}

// figure15 runs the DMOZ workloads: SPEX streams; the in-memory engines are
// subjected to the 512 MB budget check against the PAPER-scale element
// count, so at any scale the table reports the paper's OOM outcome.
func figure15(out, progress io.Writer, scale float64, o *bench.Observer) ([]bench.Measurement, error) {
	var all []bench.Measurement
	paperElements := map[string]int64{
		"dmoz-structure": 3_940_716,
		"dmoz-content":   13_233_278,
	}
	for _, name := range []string{"dmoz-structure", "dmoz-content"} {
		doc := bench.Dataset(name, scale)
		data := doc.Bytes()
		info := mustInfo(data)
		ms, err := bench.RunFigure(bench.Fig15DMOZ, data, bench.StreamingEngines, progress, o)
		if err != nil {
			return all, err
		}
		// The baselines face the paper-sized document in the budget check.
		for _, w := range bench.Fig15DMOZ {
			for _, e := range []bench.Engine{bench.EngineTreeWalk, bench.EngineAutomaton} {
				m, err := bench.RunBaseline(e, w, nil, paperElements[name])
				if err != nil {
					return all, err
				}
				ms = append(ms, m)
			}
		}
		// The shared workloads say "dmoz"; reports must distinguish the
		// structure and content dumps.
		for i := range ms {
			ms[i].Dataset = name
		}
		title := fmt.Sprintf("\nFigure 15 — %s (scale %g: %.1f MB, %d elements; paper size %d elements)",
			name, scale, float64(len(data))/(1<<20), info.Elements, paperElements[name])
		bench.WriteTable(out, title, ms)
		all = append(all, ms...)
	}
	return all, nil
}

// memoryTable reproduces the §VI memory observation: SPEX live memory stays
// flat across documents and queries while the DOM grows with the input.
func memoryTable(out io.Writer, scale float64) error {
	fmt.Fprintf(out, "\nMemory (§VI): live heap after evaluation, scale %g\n", scale)
	fmt.Fprintf(out, "%-16s %-32s %12s %14s\n", "dataset", "query", "spex [MB]", "treewalk [MB]")
	cases := []struct {
		dataset string
		query   string
	}{
		{"mondial", "_*.province.city"},
		{"wordnet", "_*.Noun.wordForm"},
		{"dmoz-structure", "_*.Topic.Title"},
	}
	for _, c := range cases {
		data := bench.Dataset(c.dataset, scale).Bytes()
		w := bench.Workload{Dataset: c.dataset, Class: 1, Query: c.query}
		spexM, err := bench.RunSPEX(w, data)
		if err != nil {
			return err
		}
		twM, err := bench.RunBaseline(bench.EngineTreeWalk, w, data, spexM.Elements)
		if err != nil {
			return err
		}
		tw := fmt.Sprintf("%14.1f", float64(twM.LiveBytes)/(1<<20))
		if twM.Skipped != "" {
			tw = "           OOM"
		}
		fmt.Fprintf(out, "%-16s %-32s %12.1f %s\n", c.dataset, c.query,
			float64(spexM.LiveBytes)/(1<<20), tw)
	}
	// Peak process heap while SPEX streams the largest document straight
	// from the generator — no part of the input is ever materialized —
	// the closest analogue of the paper's "between 8.5 and 11 MB
	// (including the Java Virtual Machine)".
	plan, err := core.Prepare("_*.Topic[editor].Title")
	if err != nil {
		return err
	}
	runtime.GC()
	if _, err := plan.Evaluate(bench.Dataset("dmoz-structure", scale).Stream(), core.EvalOptions{Mode: spexnet.ModeCount}); err != nil {
		return err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	fmt.Fprintf(out, "SPEX heap while streaming dmoz-structure (never materialized): %.1f MB\n",
		float64(after.HeapAlloc)/(1<<20))
	return nil
}

func mustInfo(data []byte) xmlstream.Info {
	info, err := xmlstream.Measure(xmlstream.NewScanner(bytes.NewReader(data)))
	if err != nil {
		panic(err)
	}
	return info
}
