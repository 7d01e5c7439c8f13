// Command benchmark is the repository's benchmark: five workloads that each
// stress a different layer, four end-to-end metrics measured with tracing
// off, and a traced run that says which layer the time went to. README.md in this
// directory describes the method; BENCHMARK.json at the repository root
// names the metrics and their regression bounds.
//
//	go run ./benchmark -workload closure_qual -seed 1 -seconds 24 -trace 0
//	go run ./benchmark -seed 1 -trace 1 -out report.json -spans trace.json
//	go run ./benchmark -aa 6
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadDef names a workload, says why it is in the set, and builds it
// (inputs from the seed, then the oracle).
type workloadDef struct {
	name  string
	why   string
	build func(config) (workload, error)
}

var workloadDefs = []workloadDef{
	{"feed_count", "shortest network over the fattest tokens: the scanner's largest share of a pass", newFeedCount},
	{"closure_qual", "markup-dense closure with a future qualifier: transducer network and condition formulas dominate", newClosureQual},
	{"extract_serialize", "serialized answers behind a late qualifier: output buffering and serialization dominate", newExtractSerialize},
	{"sdi_merged", "128 overlapping subscriptions in one merged network: set compiler and multi-query engine dominate", newSDIMerged},
	{"spexd_live", "closure_qual's query through spexd over loopback HTTP: what the server adds in start-up, allocation and held state", newSpexdLive},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// End-to-end metric names and units, in report order.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"throughput_mb_s", "MB/s"},
	{"alloc_b_per_event", "B/event"},
	{"live_heap_kb", "KB"},
}

// workloadReport is everything one run measured for one workload.
type workloadReport struct {
	Name           string            `json:"name"`
	Why            string            `json:"why"`
	Correct        bool              `json:"correct"`
	Attempted      int               `json:"attempted"`
	Failed         int               `json:"failed"`
	DocBytes       int               `json:"doc_bytes"`
	Setups         int               `json:"setups"`
	Passes         int               `json:"passes"`
	LatencySamples int               `json:"latency_samples"`
	EndToEnd       map[string]metric `json:"end_to_end"`
	// Observed is what the untraced slots saw besides: pooled answer
	// latencies and the median and fast-decile timings. With -trace 1 they
	// are among the per-layer metrics too.
	Observed map[string]float64 `json:"observed"`
	PerLayer map[string]metric  `json:"per_layer,omitempty"`
}

type report struct {
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds_per_workload"`
	Rounds     int              `json:"rounds"`
	GoVersion  string           `json:"go_version"`
	CPU        string           `json:"cpu"`
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Workloads  []workloadReport `json:"workloads"`
}

// run builds the selected workloads, runs their slots interleaved, then the
// heap probe and, if asked, the traced passes. spans receives the fastest
// traced pass of each workload.
func run(c config, defs []workloadDef, spans *[]spanRecord) (*report, error) {
	rep := &report{
		Seed: c.seed, Seconds: c.seconds, Rounds: c.rounds,
		GoVersion: runtime.Version(), CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	ws := make([]workload, len(defs))
	for i, d := range defs {
		var err error
		if ws[i], err = d.build(c); err != nil {
			return nil, err
		}
	}

	// A slot is seconds/rounds long whether or not tracing is on; with it on
	// the untraced slots keep two fifths of the rounds and are then the
	// reference the traced passes are compared with.
	slot := time.Duration(c.seconds / float64(c.rounds) * float64(time.Second))
	rounds := c.rounds
	if c.trace {
		rounds = max(2, c.rounds*2/5)
	}
	acc := make([]samples, len(ws))
	for i := range acc {
		acc[i].lat = make([]float64, 0, maxLatencySamples)
	}
	// Slot deadlines are laid out from the start, so a slot that overruns —
	// it always finishes the cycle it is in — takes the time from the next
	// one and the run keeps its length.
	deadline := time.Now()
	for r := 0; r < rounds; r++ {
		// The order rotates by one each round, so no workload always runs
		// after the same neighbour.
		for k := range ws {
			i := (k + r) % len(ws)
			deadline = deadline.Add(slot)
			ws[i].slot(deadline, &acc[i])
		}
	}

	var host map[string]float64
	if c.trace {
		host = hostCeilings()
	}
	for i, w := range ws {
		a, name := &acc[i], defs[i].name
		wr := workloadReport{
			Name: name, Why: defs[i].why,
			Correct: a.wrong == 0 && len(a.mbps) > 0, Attempted: a.attempted, Failed: a.failed,
			DocBytes: w.docBytes(), Passes: len(a.mbps), Setups: len(a.setup), LatencySamples: a.latSeen,
			EndToEnd: map[string]metric{},
		}
		heap, err := w.liveHeapKB()
		if err != nil {
			return nil, fmt.Errorf("%s: heap probe: %w", name, err)
		}
		mb := float64(w.docBytes()) / 1e6
		values := []float64{
			a.first.seconds(),
			mb / a.steady.seconds(),
			float64(a.allocB) / float64(a.events),
			heap,
		}
		for k, m := range endToEnd {
			wr.EndToEnd[m[0]] = metric{values[k], m[1]}
		}
		// The timings as a user on this host at this hour had them: the
		// issue-style estimators, too loud here to be held to a bound.
		sort.Float64s(a.lat)
		wr.Observed = map[string]float64{
			"latency.samples":              float64(len(a.lat)),
			"bench.throughput_median_mb_s": median(a.mbps),
			"bench.throughput_p90_mb_s":    quantile(a.mbps, 0.9),
			"bench.setup_median_s":         median(a.setup),
		}
		if len(a.lat) > 0 {
			wr.Observed["latency.answer_p50_ms"] = sortedQuantile(a.lat, 0.50)
			wr.Observed["latency.answer_p95_ms"] = sortedQuantile(a.lat, 0.95)
		}
		if c.trace {
			ref := reference{passSeconds: mb / quantile(a.mbps, 1), allocPerEvent: values[2]}
			layers, passSpans, err := w.traced(time.Duration(0.6*c.seconds*float64(time.Second)), ref)
			if err != nil {
				return nil, fmt.Errorf("%s: traced run: %w", name, err)
			}
			for k, v := range host {
				layers[k] = v
			}
			for k, v := range wr.Observed {
				layers[k] = v
			}
			layers["bench.gen_s"], layers["bench.oracle_s"] = w.buildCost()
			wr.PerLayer = map[string]metric{}
			for _, m := range perLayer {
				wr.PerLayer[m[0]] = metric{layers[m[0]], m[1]}
			}
			if spans != nil {
				*spans = append(*spans, passSpans...)
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

// result is the object the driver reads from the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summarize folds a report into the driver's result object: the end-to-end
// metrics, or with trace the per-layer ones. With more than one workload the
// names are prefixed "<workload>/".
func summarize(rep *report, trace bool) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range rep.Workloads {
		res.Correct = res.Correct && w.Correct
		res.Attempted += w.Attempted
		res.Failed += w.Failed
		ms := w.EndToEnd
		if trace {
			ms = w.PerLayer
		}
		for name, m := range ms {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				return res, fmt.Errorf("%s: %s has no finite value", w.Name, name)
			}
			if len(rep.Workloads) > 1 {
				name = w.Name + "/" + name
			}
			res.Metrics[name] = m
		}
	}
	return res, nil
}

func printReport(rep *report) {
	fmt.Printf("seed %d, %.0f s per workload in %d rounds, %s, GOMAXPROCS %d of %d, %s\n",
		rep.Seed, rep.Seconds, rep.Rounds, rep.GoVersion, rep.GOMAXPROCS, rep.NumCPU, rep.CPU)
	for _, w := range rep.Workloads {
		fmt.Printf("\n%s: %d bytes, %d set-ups, %d passes, %d latency samples, %d operations attempted, %d failed, correct=%v\n",
			w.Name, w.DocBytes, w.Setups, w.Passes, w.LatencySamples, w.Attempted, w.Failed, w.Correct)
		for _, m := range endToEnd {
			fmt.Printf("  %-34s %14.4f %s\n", m[0], w.EndToEnd[m[0]].Value, m[1])
		}
		if w.PerLayer == nil {
			for _, m := range perLayer {
				if v, ok := w.Observed[m[0]]; ok {
					fmt.Printf("  %-34s %14.4f %s (observed, no bound)\n", m[0], v, m[1])
				}
			}
		}
		names := make([]string, 0, len(w.PerLayer))
		for n := range w.PerLayer {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-34s %14.4f %s\n", n, w.PerLayer[n].Value, w.PerLayer[n].Unit)
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func selectWorkloads(name string) ([]workloadDef, error) {
	if name == "all" {
		return workloadDefs, nil
	}
	var names []string
	for _, d := range workloadDefs {
		if d.name == name {
			return []workloadDef{d}, nil
		}
		names = append(names, d.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want all or one of %s)", name, strings.Join(names, ", "))
}

func main() {
	var (
		c        = config{rounds: 10, scale: 1}
		name     = flag.String("workload", "all", "workload to run, or all")
		trace    = flag.Int("trace", 0, "1 adds the traced passes and prints the per-layer metrics")
		out      = flag.String("out", "", "write the full report as JSON to this file")
		spansOut = flag.String("spans", "", "with -trace 1, write the spans of each workload's last traced pass to this file")
		aa       = flag.Int("aa", 0, "run the end-to-end measurement this many times, on consecutive seeds, and print the spread of every metric")
	)
	flag.Int64Var(&c.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&c.seconds, "seconds", 24, "measured seconds per workload")
	flag.Parse()
	c.trace = *trace == 1

	// The load comes from one process with at most two threads running Go
	// code, so the numbers mean the same on a larger host.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	defs, err := selectWorkloads(*name)
	if err != nil {
		fatal(err)
	}
	if *aa > 0 {
		if err := runAA(c, defs, *aa); err != nil {
			fatal(err)
		}
		return
	}
	var spans []spanRecord
	rep, err := run(c, defs, &spans)
	if err != nil {
		fatal(err)
	}
	printReport(rep)
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fatal(err)
		}
	}
	if *spansOut != "" {
		if err := writeJSON(*spansOut, spans); err != nil {
			fatal(err)
		}
	}
	res, err := summarize(rep, c.trace)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%s\n", line)
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "benchmark: answers differ from the oracle")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
