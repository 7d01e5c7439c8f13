// Command spex evaluates a regular path expression with qualifiers against
// an XML document, streaming: the input is processed in one pass and
// results are printed progressively.
//
// Usage:
//
//	spex -q '_*.country[province].name' [flags] [file.xml]
//	cat doc.xml | spex -q 'a.b'
//
// Flags:
//
//	-q expr    the query (rpeq syntax; required unless -cq is given)
//	-xpath     interpret -q as the XPath fragment (//a/b[c])
//	-cq query  a conjunctive query, e.g. 'q(X3) :- Root(_*.a) X1, X1(b) X2, X1(c) X3'
//	-count     print only the number of answers
//	-nodes     print answer positions (index and label) instead of XML
//	-stats     print evaluation statistics to stderr, including a
//	           per-transducer table (visits, messages by kind, stack,
//	           formula size)
//	-trace     print the transition trace to stderr: which transducer emits
//	           which activation/determination at which stream event — the
//	           traces the paper walks through in Figs. 4, 5 and 13
//	-trace-kind  message kinds to trace (doc,act,det; default act,det); a
//	           determination is traced once where it originates and once at
//	           each sink (OU) whose candidates it changes, the document event
//	           at every transducer it visits — one that neither receives an
//	           activation nor asked for the event is skipped
//	-trace-node  only trace transducers whose name contains a substring
//	-window N  evaluate in windows of N top-level records (see §I of the
//	           paper on the exactness caveat of windows)
//	-engine E  evaluate through the set engine the spexd server uses:
//	           merged (inline) or parallel[:shards]; the legacy names
//	           sequential and shared mean merged (requires -count or
//	           -nodes)
//	-file F    evaluate file F through the mmap + zero-copy ingest fast
//	           path: the document is mapped read-only and scanned in place,
//	           with no per-event allocation
//	-pscan N   with -file: tokenize with the parallel chunk scanner on N
//	           workers (negative = one per CPU); the stitched event stream
//	           is identical to a serial scan's
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	spex "repro"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/spexnet"
	"repro/internal/window"
	"repro/internal/xmlstream"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "spex:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("spex", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		query     = fs.String("q", "", "rpeq query, e.g. '_*.a[b].c'")
		xpath     = fs.Bool("xpath", false, "interpret -q as an XPath-fragment query")
		conjunct  = fs.String("cq", "", "conjunctive query, e.g. 'q(X3) :- Root(_*.a) X1, X1(b) X2, X1(c) X3'")
		count     = fs.Bool("count", false, "print only the number of answers")
		nodes     = fs.Bool("nodes", false, "print answer positions instead of XML")
		stats     = fs.Bool("stats", false, "print evaluation statistics to stderr")
		trace     = fs.Bool("trace", false, "print the transition trace (Figs. 4/5/13) to stderr")
		traceKind = fs.String("trace-kind", "act,det", "message kinds to trace: doc,act,det (empty = all); det shows a determination at its origin and at each sink it changes, doc only the transducers the event visits")
		traceNode = fs.String("trace-node", "", "only trace transducers whose name contains one of these comma-separated substrings")
		traceID   = fs.String("trace-id", "", "stream trace id stamped on every -trace record (correlates runs in shared logs)")
		windowN   = fs.Int("window", 0, "evaluate in windows of N top-level records (0 = exact whole-stream evaluation)")
		engine    = fs.String("engine", "", "evaluate through the set engine: merged or parallel[:shards]; sequential and shared are accepted and mean merged (requires -count or -nodes)")
		file      = fs.String("file", "", "evaluate this file through the mmap + zero-copy ingest fast path (no positional file or stdin)")
		pscan     = fs.Int("pscan", 0, "with -file: parallel chunk-scan worker count (0 = serial zero-copy scan, negative = one per CPU)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	plan, err := preparePlan(*query, *xpath, *conjunct)
	if err != nil {
		return err
	}

	in := stdin
	// doc is the mmap'd (or slurped) -file document; docSrc builds a fresh
	// zero-copy or parallel chunk-scan source over it.
	var doc *xmlstream.Doc
	docSrc := func(opts ...xmlstream.ScannerOption) xmlstream.Source {
		if *pscan != 0 {
			return xmlstream.NewParallelScanner(doc.Data(), *pscan, opts...)
		}
		return xmlstream.ScanBytes(doc.Data(), opts...)
	}
	if *file != "" {
		if fs.NArg() > 0 {
			return fmt.Errorf("-file and a positional input file are mutually exclusive")
		}
		doc, err = xmlstream.OpenFile(*file)
		if err != nil {
			return err
		}
		defer doc.Close()
	} else if *pscan != 0 {
		return fmt.Errorf("-pscan requires -file (splitting needs the whole document in memory)")
	}
	switch fs.NArg() {
	case 0:
	case 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	default:
		return fmt.Errorf("at most one input file, got %d", fs.NArg())
	}

	out := bufio.NewWriter(stdout)
	defer out.Flush()

	if *engine != "" {
		if *trace || *stats || *windowN > 0 || *conjunct != "" {
			return fmt.Errorf("-engine cannot combine with -trace, -stats, -window or -cq")
		}
		if !*count && !*nodes {
			return fmt.Errorf("-engine requires -count or -nodes (the set engine reports answer positions, not subtrees)")
		}
		return runEngine(*engine, *query, *xpath, in, doc, *pscan, out, *count)
	}

	if *windowN > 0 {
		wsrc := xmlstream.Source(xmlstream.NewScanner(in))
		if doc != nil {
			wsrc = docSrc()
			if st, ok := wsrc.(interface{ Stop() }); ok {
				defer st.Stop() // release chunk workers if the pass errors out early
			}
		}
		wstats, err := window.Evaluate(plan, wsrc, *windowN,
			func(widx int, r spexnet.Result) {
				if !*count {
					fmt.Fprintf(out, "window %d\t%d\t%s\n", widx, r.Index, r.Name)
				}
			})
		if err != nil {
			return err
		}
		if *count {
			fmt.Fprintln(out, wstats.Matches)
		}
		if *stats {
			fmt.Fprintf(stderr, "windows=%d records=%d matches=%d\n", wstats.Windows, wstats.Records, wstats.Matches)
		}
		return nil
	}

	mode := spexnet.ModeSerialize
	if *count {
		mode = spexnet.ModeCount
	} else if *nodes {
		mode = spexnet.ModeNodes
	}
	sink := func(r spexnet.Result) {
		if *nodes {
			fmt.Fprintf(out, "%d\t%s\n", r.Index, r.Name)
			return
		}
		for _, ev := range r.Events {
			writeEvent(out, ev)
		}
		out.WriteByte('\n')
	}
	opts := core.EvalOptions{Mode: mode, Sink: sink, TraceID: *traceID}

	// The trace renders one line per transducer emission, labelled with the
	// stream event of the step it happened in — the layout of the paper's
	// Fig. 13 walk-through. The event column is maintained by the drive loop
	// below, which feeds one event at a time for exactly this reason.
	var curEvent string
	if *trace {
		filter, err := parseTraceFilter(*traceKind, *traceNode)
		if err != nil {
			return err
		}
		opts.Tracer = obs.FilterTracer(obs.TracerFunc(func(ev obs.TraceEvent) {
			fmt.Fprintf(stderr, "%4d  %-6s  %-8s  %s\n", ev.Step, curEvent, ev.Node, ev.Msg)
		}), filter)
	}
	var metrics *obs.Metrics
	if *stats {
		metrics = obs.NewMetrics()
		opts.Metrics = metrics
	}

	evalRun, err := plan.NewRun(opts)
	if err != nil {
		return err
	}
	var src xmlstream.Source = xmlstream.NewScanner(in)
	if doc != nil {
		src = docSrc(xmlstream.WithSymtab(plan.Symtab()))
		if st, ok := src.(interface{ Stop() }); ok {
			defer st.Stop() // release chunk workers if the pass errors out early
		}
	}
	for {
		ev, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		curEvent = ev.String()
		if err := evalRun.Feed(ev); err != nil {
			return err
		}
	}
	if err := evalRun.Close(); err != nil {
		return err
	}
	st := evalRun.Stats()
	if *count {
		fmt.Fprintln(out, st.Output.Matches)
	}
	if *stats {
		fmt.Fprintf(stderr, "events=%d elements=%d depth=%d transducers=%d maxstack=%d maxformula=%d matches=%d candidates=%d dropped=%d\n",
			st.Events, st.Elements, st.MaxDepth, st.Transducers, st.MaxStack, st.MaxFormula,
			st.Output.Matches, st.Output.Candidates, st.Output.Dropped)
		if is, ok := src.(interface{ IngestStats() xmlstream.IngestStats }); ok {
			ist := is.IngestStats()
			fmt.Fprintf(stderr, "ingest: mmap=%v chunks=%d arena_bytes=%d arena_blocks=%d arena_attrs=%d buffer_bytes=%d\n",
				doc != nil && doc.Mapped(), ist.Chunks, ist.ArenaBytes, ist.ArenaBlocks, ist.ArenaAttrs, ist.BufferBytes)
		}
		writeTransducerTable(stderr, evalRun.Snapshot())
	}
	return nil
}

// runEngine evaluates the query through the same spex.Set and shard
// selection the server's channels use, so the CLI can sanity-check the set
// engine, inline or sharded, against the plain evaluator.
func runEngine(sel, query string, xpath bool, in io.Reader, doc *xmlstream.Doc, pscan int, out *bufio.Writer, countOnly bool) error {
	eng, err := server.ParseEngine(sel)
	if err != nil {
		return err
	}
	var q *spex.Query
	if xpath {
		q, err = spex.CompileXPath(query)
	} else {
		q, err = spex.Compile(query)
	}
	if err != nil {
		return err
	}
	var setOpts []spex.SetOption
	if eng.Shards != 0 {
		setOpts = append(setOpts, spex.Parallel(eng.Shards))
	}
	if pscan != 0 {
		setOpts = append(setOpts, spex.ParallelScan(pscan))
	}
	set := spex.NewSet([]*spex.Query{q}, func(_ int, m spex.Match) {
		if !countOnly {
			fmt.Fprintf(out, "%d\t%s\n", m.Index, m.Name)
		}
	}, setOpts...)
	if doc != nil {
		err = set.EvaluateBytes(doc.Data())
	} else {
		err = set.Evaluate(in)
	}
	if err != nil {
		return err
	}
	if countOnly {
		fmt.Fprintln(out, set.Counts()[0])
	}
	return nil
}

// parseTraceFilter builds the trace filter from the -trace-kind and
// -trace-node flag values (comma-separated; empty lists mean "all").
func parseTraceFilter(kinds, nodes string) (obs.TraceFilter, error) {
	var f obs.TraceFilter
	for _, k := range strings.Split(kinds, ",") {
		switch strings.TrimSpace(k) {
		case "":
		case "doc":
			f.Kinds = append(f.Kinds, obs.KindDoc)
		case "act":
			f.Kinds = append(f.Kinds, obs.KindActivation)
		case "det":
			f.Kinds = append(f.Kinds, obs.KindDetermination)
		default:
			return f, fmt.Errorf("unknown -trace-kind %q (want doc, act or det)", k)
		}
	}
	for _, n := range strings.Split(nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			f.Nodes = append(f.Nodes, n)
		}
	}
	return f, nil
}

// writeTransducerTable renders the per-transducer instruments: deliveries by
// direction and kind — visits are the document events delivered to the
// transducer (it is skipped unless an activation arrives or it asked for the
// event), out det the determinations it originated, in det (sinks only) the
// resolutions that touched one of its candidates — and the stack/formula
// maxima Lemma V.2 bounds by the depth d and the formula size o(φ). The rows
// are the lowered network's: Fig. 11's connectors (SP, JO, VF, VD) are wiring,
// visible as the out-degree of the transducer that writes them ("out deg";
// out act counts an emission once per node it reaches) and, for a condition's
// last step, as the determinations its activations became (out det).
func writeTransducerTable(w io.Writer, s obs.Snapshot) {
	if !s.Enabled || len(s.Transducers) == 0 {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "transducer\tvisits\tin act\tin det\tout deg\tout act\tout det\tmax stack\tmax formula\t")
	for _, t := range s.Transducers {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
			t.Name, t.InDoc, t.InAct, t.InDet, t.OutDegree, t.OutAct, t.OutDet, t.MaxStack, t.MaxFormula)
	}
	tw.Flush()
}

func preparePlan(query string, xpath bool, conjunct string) (*core.Plan, error) {
	switch {
	case conjunct != "":
		q, err := cq.Parse(conjunct)
		if err != nil {
			return nil, err
		}
		expr, err := q.Translate()
		if err != nil {
			return nil, err
		}
		return core.FromAST(expr), nil
	case query == "":
		return nil, fmt.Errorf("missing query: use -q or -cq")
	case xpath:
		return core.PrepareXPath(query)
	default:
		return core.Prepare(query)
	}
}

func writeEvent(w *bufio.Writer, ev xmlstream.Event) {
	switch ev.Kind {
	case xmlstream.StartElement:
		w.WriteString("<" + ev.Name + ">")
	case xmlstream.EndElement:
		w.WriteString("</" + ev.Name + ">")
	case xmlstream.Text:
		w.WriteString(xmlstream.EscapeText(ev.Data))
	}
}
