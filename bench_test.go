package spex

// Benchmarks regenerating the paper's evaluation (§VI): one series per
// figure. The default scales keep `go test -bench=.` under a few minutes;
// `cmd/spexbench` reaches the paper's full document sizes.
//
//   - BenchmarkFig14Mondial / BenchmarkFig14WordNet: Figure 14 — SPEX vs
//     the two in-memory baselines (Saxon and Fxgrep stand-ins) over query
//     classes 1–4 / 1–3.
//   - BenchmarkFig15DMOZStructure / ...Content: Figure 15 — SPEX on the
//     large flat documents (the baselines exceed memory at paper scale;
//     they are included here at reduced scale for reference).
//   - BenchmarkCompileLinear: Lemma V.1 — translation time vs query size.
//   - BenchmarkAblation*: design-choice ablations (formula normalization,
//     count vs serialize output, scanner vs encoding/xml front end).

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/multi"
	"repro/internal/obs"
	"repro/internal/rpeq"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// Benchmark document scales: Fig. 14 documents at the paper's size, DMOZ
// reduced (the paper's 300 MB / 1 GB are reachable via cmd/spexbench).
const (
	benchMondialScale = 1
	benchWordNetScale = 0.25
	benchDMOZScale    = 0.01
)

var benchDocs struct {
	once sync.Once
	m    map[string][]byte
}

func benchDoc(b *testing.B, name string) []byte {
	benchDocs.once.Do(func() {
		benchDocs.m = map[string][]byte{
			"mondial":        dataset.Mondial(benchMondialScale).Bytes(),
			"wordnet":        dataset.WordNet(benchWordNetScale).Bytes(),
			"dmoz-structure": dataset.DMOZStructure(benchDMOZScale).Bytes(),
			"dmoz-content":   dataset.DMOZContent(benchDMOZScale).Bytes(),
		}
	})
	doc, ok := benchDocs.m[name]
	if !ok {
		b.Fatalf("unknown benchmark document %q", name)
	}
	return doc
}

// runFigure benchmarks each workload with each engine as sub-benchmarks
// named class<N>/<engine>.
func runFigure(b *testing.B, workloads []bench.Workload, docName string, engines []bench.Engine) {
	doc := benchDoc(b, docName)
	for _, w := range workloads {
		w := w
		for _, e := range engines {
			e := e
			b.Run(fmt.Sprintf("class%d/%s", w.Class, e), func(b *testing.B) {
				b.SetBytes(int64(len(doc)))
				var matches int64
				for i := 0; i < b.N; i++ {
					switch e {
					case bench.EngineSPEX:
						matches = benchSPEX(b, w.Query, doc)
					case bench.EngineTreeWalk:
						matches = benchBaseline(b, baseline.TreeWalk{}, w.Query, doc)
					case bench.EngineAutomaton:
						matches = benchBaseline(b, baseline.Automaton{}, w.Query, doc)
					case bench.EngineXScan:
						expr := rpeq.MustParse(w.Query)
						if !(baseline.XScan{}).Supports(expr) {
							b.Skip("xscan: qualifiers unsupported ([18])")
						}
						n, err := baseline.XScan{}.Count(bytes.NewReader(doc), expr)
						if err != nil {
							b.Fatal(err)
						}
						matches = n
					}
				}
				b.ReportMetric(float64(matches), "matches")
			})
		}
	}
}

func benchSPEX(b *testing.B, query string, doc []byte) int64 {
	// Compilation is inside the measured region, as in the paper ("the
	// times given ... for SPEX include the compilation").
	plan, err := core.Prepare(query)
	if err != nil {
		b.Fatal(err)
	}
	stats, err := plan.EvaluateReader(bytes.NewReader(doc), core.EvalOptions{Mode: spexnet.ModeCount})
	if err != nil {
		b.Fatal(err)
	}
	return stats.Output.Matches
}

func benchBaseline(b *testing.B, ev baseline.Evaluator, query string, doc []byte) int64 {
	expr, err := rpeq.Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	nodes, err := baseline.EvalReader(ev, bytes.NewReader(doc), expr)
	if err != nil {
		b.Fatal(err)
	}
	return int64(len(nodes))
}

// BenchmarkFig14Mondial regenerates Figure 14 (left): MONDIAL, query
// classes 1–4, all three engines.
func BenchmarkFig14Mondial(b *testing.B) {
	runFigure(b, bench.Fig14Mondial, "mondial", bench.Engines)
}

// BenchmarkFig14WordNet regenerates Figure 14 (right): WordNet, classes 1–3.
func BenchmarkFig14WordNet(b *testing.B) {
	runFigure(b, bench.Fig14WordNet, "wordnet", bench.Engines)
}

// BenchmarkFig15DMOZStructure regenerates Figure 15 for the structure dump
// (SPEX only, as in the paper — the baselines exhaust memory at full
// scale).
func BenchmarkFig15DMOZStructure(b *testing.B) {
	runFigure(b, bench.Fig15DMOZ, "dmoz-structure", bench.StreamingEngines)
}

// BenchmarkFig15DMOZContent regenerates Figure 15 for the content dump.
func BenchmarkFig15DMOZContent(b *testing.B) {
	runFigure(b, bench.Fig15DMOZ, "dmoz-content", bench.StreamingEngines)
}

// BenchmarkCompileLinear validates Lemma V.1 empirically: compiling an
// rpeq(n) into a network takes time linear in n.
func BenchmarkCompileLinear(b *testing.B) {
	for _, steps := range []int{4, 16, 64, 256} {
		expr := "_*"
		for i := 0; i < steps; i++ {
			expr += ".a[b]"
		}
		node := rpeq.MustParse(expr)
		b.Run(fmt.Sprintf("steps%d", steps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := spexnet.Build(node, spexnet.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOutputMode compares count, node and serialize output
// modes on a match-heavy query, quantifying the cost of result assembly
// (§III.8's output transducer is the only Turing-power component).
func BenchmarkAblationOutputMode(b *testing.B) {
	doc := benchDoc(b, "mondial")
	node := rpeq.MustParse("_*.city")
	modes := []struct {
		name string
		mode spexnet.ResultMode
	}{
		{"count", spexnet.ModeCount},
		{"nodes", spexnet.ModeNodes},
		{"serialize", spexnet.ModeSerialize},
	}
	for _, m := range modes {
		m := m
		b.Run(m.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				net, err := spexnet.Build(node, spexnet.Options{
					Mode: m.mode,
					Sink: func(spexnet.Result) {},
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := net.Run(xmlstream.NewScanner(bytes.NewReader(doc))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationObservability prices the observability layer on the
// class-2 MONDIAL workload: "off" is the uninstrumented fast path (no
// registry, no tracer — emit closures carry no per-message branches and
// Step takes the bare propagate loop), which must stay within a few
// percent of the seed; "metrics" adds the per-event instrument updates;
// "trace" additionally routes every transducer emission through a ring
// tracer.
func BenchmarkAblationObservability(b *testing.B) {
	doc := benchDoc(b, "mondial")
	plan, err := core.Prepare("_*.country[province].name")
	if err != nil {
		b.Fatal(err)
	}
	evaluate := func(b *testing.B, opts core.EvalOptions) {
		b.Helper()
		opts.Mode = spexnet.ModeCount
		if _, err := plan.Evaluate(xmlstream.NewScanner(bytes.NewReader(doc)), opts); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("off", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			evaluate(b, core.EvalOptions{})
		}
	})
	b.Run("metrics", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		m := obs.NewMetrics()
		for i := 0; i < b.N; i++ {
			evaluate(b, core.EvalOptions{Metrics: m})
		}
	})
	b.Run("trace", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		tr := obs.NewRingTracer(1024)
		for i := 0; i < b.N; i++ {
			evaluate(b, core.EvalOptions{Tracer: tr})
		}
	})
}

// ablationCountWorkload is the DMOZ count workload of the interning
// ablation: class-1 descendant paths of increasing answer density, from the
// Fig. 15 shape (_*.Topic.Title) to near-universal matches (RDF._*). The
// high-density queries are where the allocation-free count path matters —
// the string baseline allocates one candidate record per answer.
var ablationCountWorkload = []string{"_*.Topic.Title", "_*.Topic._", "RDF._*", "_*._"}

// BenchmarkAblationInterning prices the symbol-interned event pipeline on
// the DMOZ count workload: "interned" scans with a shared symbol table, so
// every label test in the network is one integer comparison and count mode
// takes the allocation-free fast path; "strings" is the pre-interning
// pipeline (string label comparisons, allocating candidate records). Events
// are pre-scanned once and replayed, so the measured region is the
// evaluation pipeline, not the tokenizer. One iteration evaluates the whole
// workload; events/s aggregates over it.
func BenchmarkAblationInterning(b *testing.B) {
	doc := benchDoc(b, "dmoz-structure")
	nodes := make([]rpeq.Node, len(ablationCountWorkload))
	for i, q := range ablationCountWorkload {
		nodes[i] = rpeq.MustParse(q)
	}
	run := func(b *testing.B, noInterning bool) {
		opts := spexnet.Options{Mode: spexnet.ModeCount, NoInterning: noInterning}
		scanOpts := []xmlstream.ScannerOption{xmlstream.WithText(false)}
		if !noInterning {
			opts.Symtab = xmlstream.NewSymtab()
			scanOpts = append(scanOpts, xmlstream.WithSymtab(opts.Symtab))
		}
		events, err := xmlstream.Collect(xmlstream.NewScanner(bytes.NewReader(doc), scanOpts...))
		if err != nil {
			b.Fatal(err)
		}
		src := &xmlstream.SliceSource{Events: events}
		b.SetBytes(int64(len(doc) * len(nodes)))
		b.ResetTimer()
		var matches int64
		var eventsRun int64
		for i := 0; i < b.N; i++ {
			matches, eventsRun = 0, 0
			for _, node := range nodes {
				net, err := spexnet.Build(node, opts)
				if err != nil {
					b.Fatal(err)
				}
				src.Reset()
				stats, err := net.Run(src)
				if err != nil {
					b.Fatal(err)
				}
				matches += stats.Output.Matches
				eventsRun += stats.Events
			}
		}
		if matches == 0 {
			b.Fatal("interning ablation found no answers; workload broken")
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(eventsRun)*float64(b.N)/secs, "events/s")
		}
	}
	b.Run("interned", func(b *testing.B) { run(b, false) })
	b.Run("strings", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationScanner compares the hand-written scanner against
// encoding/xml as the network's front end.
func BenchmarkAblationScanner(b *testing.B) {
	doc := benchDoc(b, "mondial")
	plan, err := core.Prepare("_*.province.city")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("scanner", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			if _, err := plan.Evaluate(xmlstream.NewScanner(bytes.NewReader(doc)), core.EvalOptions{Mode: spexnet.ModeCount}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-xml", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			if _, err := plan.Evaluate(xmlstream.NewDecoder(bytes.NewReader(doc)), core.EvalOptions{Mode: spexnet.ModeCount}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDepthScaling measures throughput against document depth d: per
// Lemma V.2 time stays linear in the stream while stacks grow with d.
func BenchmarkDepthScaling(b *testing.B) {
	for _, d := range []int{4, 16, 64, 256} {
		doc := deepWide(d, 4096)
		b.Run(fmt.Sprintf("depth%d", d), func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				benchSPEX(b, "_*.leaf", doc)
			}
		})
	}
}

// deepWide builds a document with the given nesting depth and total element
// count: chains of depth d repeated until the size is reached.
func deepWide(depth, elements int) []byte {
	var sb strings.Builder
	sb.WriteString("<root>")
	for n := 0; n < elements; n += depth + 1 {
		for i := 0; i < depth; i++ {
			sb.WriteString("<n>")
		}
		sb.WriteString("<leaf></leaf>")
		for i := 0; i < depth; i++ {
			sb.WriteString("</n>")
		}
	}
	sb.WriteString("</root>")
	return []byte(sb.String())
}

// BenchmarkStreamScanner isolates the XML front end (no query).
func BenchmarkStreamScanner(b *testing.B) {
	doc := benchDoc(b, "wordnet")
	b.SetBytes(int64(len(doc)))
	for i := 0; i < b.N; i++ {
		src := xmlstream.NewScanner(bytes.NewReader(doc), xmlstream.WithText(false))
		for {
			_, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMultiQueryScaling measures the §IX multi-query optimization on
// the §VIII filtering scenario (XFilter/YFilter): N subscription queries
// with common prefixes over one stream, evaluated by N independent networks
// ("separate") versus one shared network with N sinks ("shared").
// At n=1000 (run with -benchtime as needed) the measured gap widens to
// ≈ 5.6× on this machine: 39.0 s separate vs 6.9 s shared per pass.
func BenchmarkMultiQueryScaling(b *testing.B) {
	doc := benchDoc(b, "dmoz-structure")
	for _, n := range []int{10, 100} {
		subs := make([]multi.Subscription, n)
		for i := range subs {
			// Rotate over a few shapes so prefixes, qualifiers and
			// final steps are shared to different degrees.
			var expr string
			switch i % 4 {
			case 0:
				expr = fmt.Sprintf("_*.Topic[editor].f%d", i)
			case 1:
				expr = fmt.Sprintf("_*.Topic.f%d", i)
			case 2:
				expr = "_*.Topic[editor].Title"
			default:
				expr = fmt.Sprintf("RDF.Topic[f%d]", i)
			}
			plan, err := core.Prepare(expr)
			if err != nil {
				b.Fatal(err)
			}
			subs[i] = multi.Subscription{Name: fmt.Sprintf("q%d", i), Plan: plan}
		}
		b.Run(fmt.Sprintf("n%d/separate", n), func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				// One private network per query, all fed from one scan: the
				// naive SDI deployment the shared network is measured against.
				symtab := xmlstream.NewSymtab()
				runs := make([]*core.Run, len(subs))
				for j, sub := range subs {
					run, err := sub.Plan.NewRun(core.EvalOptions{Mode: spexnet.ModeNodes, Symtab: symtab})
					if err != nil {
						b.Fatal(err)
					}
					runs[j] = run
				}
				src := xmlstream.NewScanner(bytes.NewReader(doc), xmlstream.WithText(false), xmlstream.WithSymtab(symtab))
				for {
					ev, err := src.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					for _, run := range runs {
						if err := run.Feed(ev); err != nil {
							b.Fatal(err)
						}
					}
				}
				for _, run := range runs {
					if err := run.Close(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("n%d/shared", n), func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				set, err := multi.NewMergedSet(subs)
				if err != nil {
					b.Fatal(err)
				}
				if err := set.Run(xmlstream.NewScanner(bytes.NewReader(doc), xmlstream.WithText(false))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchStep times the transducer network alone: each iteration builds a fresh
// engine and pre-scans the document against its symbol table with the timer
// stopped, then feeds the events. It reports the per-event cost and the
// per-event work — Stats.Deliveries (transducer visits, activations delivered,
// determinations applied) and its first term alone, Stats.Visits — so the cost
// per delivery and the two halves of a delivery can be read in seconds instead
// of from a full contract run of benchmark/.
func benchStep(b *testing.B, doc []byte, fresh func() (symtab *xmlstream.Symtab, step func(xmlstream.Event) error, stats func() spexnet.Stats)) {
	var events, deliveries, visits int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		symtab, step, stats := fresh()
		evs, err := xmlstream.Collect(xmlstream.ScanBytes(doc, xmlstream.WithText(false), xmlstream.WithSymtab(symtab)))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, ev := range evs {
			if err := step(ev); err != nil {
				b.Fatal(err)
			}
		}
		st := stats()
		events += st.Events
		deliveries += st.Deliveries
		visits += st.Visits
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(deliveries)/float64(events), "deliveries/event")
	b.ReportMetric(float64(visits)/float64(events), "visits/event")
}

// BenchmarkStepSDI steps the benchmark's sdi_merged subscription corpus (128
// overlapping subscriptions, one merged network) over a DMOZ-shaped document.
func BenchmarkStepSDI(b *testing.B) {
	queries := bench.SharedSubscriptions(128, 0.5, 1)
	subs := make([]multi.Subscription, len(queries))
	for i, q := range queries {
		plan, err := core.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		subs[i] = multi.Subscription{Name: q, Plan: plan}
	}
	doc := dataset.DMOZStructure(0.002).Bytes()
	benchStep(b, doc, func() (*xmlstream.Symtab, func(xmlstream.Event) error, func() spexnet.Stats) {
		set, err := multi.NewMergedSet(subs)
		if err != nil {
			b.Fatal(err)
		}
		return set.Symtab(), set.Feed, set.Stats
	})
}

// BenchmarkStepClosure steps the closure_qual query, a closure plus a
// qualifier decided after its answer, over the same document shape.
func BenchmarkStepClosure(b *testing.B) {
	expr := rpeq.MustParse("_*.Topic[editor].Title")
	doc := dataset.DMOZStructure(0.01).Bytes()
	benchStep(b, doc, func() (*xmlstream.Symtab, func(xmlstream.Event) error, func() spexnet.Stats) {
		symtab := xmlstream.NewSymtab()
		net, err := spexnet.Build(expr, spexnet.Options{Mode: spexnet.ModeCount, Symtab: symtab})
		if err != nil {
			b.Fatal(err)
		}
		return symtab, net.Step, net.Stats
	})
}
