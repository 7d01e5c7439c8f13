package spexnet

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/rpeq"
	"repro/internal/xmlstream"
)

// chainDoc builds <a><a>…<b/></a><b/></a>: a depth-n chain of a elements,
// each with a b child arriving as its LAST child. Every a matches _+[b],
// but while the chain is opening every open a holds an undecided candidate
// (its b has not been seen yet), so the candidate queue and the live
// condition-variable population both grow to n.
func chainDoc(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString("<a>")
	}
	for i := 0; i < n; i++ {
		sb.WriteString("<b/></a>")
	}
	return sb.String()
}

func governedRun(t *testing.T, expr, doc string, mode ResultMode, cfg *governor.Config, m *obs.Metrics) (*Network, Stats, error) {
	t.Helper()
	net, err := Build(rpeq.MustParse(expr), Options{Mode: mode, Sink: func(Result) {}, Governor: cfg, Metrics: m})
	if err != nil {
		t.Fatalf("build %q: %v", expr, err)
	}
	stats, err := net.Run(xmlstream.NewScanner(strings.NewReader(doc)))
	return net, stats, err
}

func TestGovernorCandidateFail(t *testing.T) {
	cfg := &governor.Config{Limits: governor.Limits{MaxCandidates: 5}, Policy: governor.PolicyFail}
	_, stats, err := governedRun(t, "_+[b]", chainDoc(20), ModeCount, cfg, nil)
	var le *governor.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("want LimitError, got %v", err)
	}
	if le.Resource != governor.ResCandidates || le.Limit != 5 {
		t.Errorf("unexpected limit error: %+v", le)
	}
	if !errors.Is(err, governor.ErrResourceLimit) {
		t.Error("errors.Is(ErrResourceLimit) should hold")
	}
	if stats.Governor.Trips == 0 || stats.Governor.Fails == 0 {
		t.Errorf("governor outcome not recorded: %+v", stats.Governor)
	}
	// The run must terminate within one event of the trip: the queue never
	// grows past the cap plus the one candidate that tripped it.
	if stats.Output.MaxQueued > 6 {
		t.Errorf("queue grew past the cap before termination: %d", stats.Output.MaxQueued)
	}
}

func TestGovernorCandidateDegradeKeepsCounts(t *testing.T) {
	const n = 20
	// Ungoverned reference count.
	_, ref, err := governedRun(t, "_+[b]", chainDoc(n), ModeCount, nil, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if ref.Output.Matches != n {
		t.Fatalf("reference count = %d, want %d", ref.Output.Matches, n)
	}
	cfg := &governor.Config{Limits: governor.Limits{MaxCandidates: 3}, Policy: governor.PolicyDegrade}
	m := obs.NewMetrics()
	_, stats, err := governedRun(t, "_+[b]", chainDoc(n), ModeCount, cfg, m)
	if err != nil {
		t.Fatalf("degraded run should complete: %v", err)
	}
	if !stats.Output.Degraded {
		t.Error("sink should report Degraded")
	}
	if stats.Output.Matches != ref.Output.Matches {
		t.Errorf("count-only degradation changed the count: %d vs %d", stats.Output.Matches, ref.Output.Matches)
	}
	if stats.Governor.Degrades == 0 {
		t.Errorf("governor outcome not recorded: %+v", stats.Governor)
	}
	snap := m.Snapshot()
	if snap.GovernorDegrades == 0 || len(snap.GovernorTrips) == 0 {
		t.Errorf("obs registry missed the trip: %+v", snap.GovernorTrips)
	}
}

func TestGovernorCandidateShedPerSink(t *testing.T) {
	const n = 20
	specs := []Spec{
		{Expr: rpeq.MustParse("_+[b]"), Mode: ModeCount, Name: "q-bad"},
		{Expr: rpeq.MustParse("a"), Mode: ModeCount, Name: "q-good"},
	}
	cfg := &governor.Config{Limits: governor.Limits{MaxCandidates: 3}, Policy: governor.PolicyShed}
	net, err := BuildSet(specs, Options{Governor: cfg})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := net.Run(xmlstream.NewScanner(strings.NewReader(chainDoc(n))))
	if err != nil {
		t.Fatalf("shed run should complete: %v", err)
	}
	sinks := net.SinkStats()
	if !sinks[0].Shed {
		t.Error("pathological sink should be shed")
	}
	if sinks[1].Shed {
		t.Error("well-behaved sink must not be shed")
	}
	if sinks[1].Matches != 1 {
		t.Errorf("surviving sink count = %d, want 1", sinks[1].Matches)
	}
	if stats.Governor.Sheds == 0 {
		t.Errorf("governor outcome not recorded: %+v", stats.Governor)
	}
}

func TestGovernorDepthFail(t *testing.T) {
	cfg := &governor.Config{Limits: governor.Limits{MaxDepth: 5}, Policy: governor.PolicyFail}
	_, _, err := governedRun(t, "a", chainDoc(20), ModeCount, cfg, nil)
	var le *governor.LimitError
	if !errors.As(err, &le) || le.Resource != governor.ResDepth {
		t.Fatalf("want depth LimitError, got %v", err)
	}
}

func TestGovernorDepthShedQuiescesNetwork(t *testing.T) {
	cfg := &governor.Config{Limits: governor.Limits{MaxDepth: 5}, Policy: governor.PolicyShed}
	net, stats, err := governedRun(t, "_+[b]", chainDoc(20), ModeCount, cfg, nil)
	if err != nil {
		t.Fatalf("shed run should complete the parse: %v", err)
	}
	if !net.allShed {
		t.Error("network should be quiesced")
	}
	if !stats.Output.Shed {
		t.Error("sink should report Shed")
	}
	// Depth bookkeeping continues while shed: MaxDepth sees the whole doc
	// (the innermost b sits one level below the deepest a).
	if stats.MaxDepth != 21 {
		t.Errorf("MaxDepth = %d, want 21", stats.MaxDepth)
	}
}

func TestGovernorDepthDegradeFallsBackToFail(t *testing.T) {
	// Depth is irreducible: count-only mode cannot shrink the document, so
	// PolicyDegrade must fail rather than pretend.
	cfg := &governor.Config{Limits: governor.Limits{MaxDepth: 5}, Policy: governor.PolicyDegrade}
	_, _, err := governedRun(t, "a", chainDoc(20), ModeCount, cfg, nil)
	var le *governor.LimitError
	if !errors.As(err, &le) || le.Resource != governor.ResDepth || le.Policy != governor.PolicyFail {
		t.Fatalf("want fail-policy depth LimitError, got %v", err)
	}
}

func TestGovernorLiveVarsFail(t *testing.T) {
	// Each open qualifier scope holds a live condition variable, so a
	// depth-20 chain under _*[b] needs ~20 live vars.
	cfg := &governor.Config{Limits: governor.Limits{MaxLiveVars: 5}, Policy: governor.PolicyFail}
	_, _, err := governedRun(t, "_*[b]", chainDoc(20), ModeCount, cfg, nil)
	var le *governor.LimitError
	if !errors.As(err, &le) || le.Resource != governor.ResLiveVars {
		t.Fatalf("want live-vars LimitError, got %v", err)
	}
}

// TestGovernorStepMessagesFail pins what the per-step cap counts: deliveries
// actually made — one per transducer visited, one per activation message
// delivered, one per determination applied by the condition store. For a.c
// (CH(a), CH(c), OU) the costliest step makes four: <$> visits all three
// transducers and delivers the initial activation. (The matching <c> makes
// three: it wakes CH(c) alone — CH(a) asked for children of <$> — whose
// activation is delivered to OU, which is visited for it.)
func TestGovernorStepMessagesFail(t *testing.T) {
	const doc = `<a><c/><x><y/></x></a>`
	cfg := &governor.Config{Limits: governor.Limits{MaxStepMessages: 4}, Policy: governor.PolicyFail}
	if _, stats, err := governedRun(t, "a.c", doc, ModeCount, cfg, nil); err != nil || stats.Output.Matches != 1 {
		t.Fatalf("cap 4: err %v, matches %d; want a clean run with 1 match", err, stats.Output.Matches)
	}
	cfg = &governor.Config{Limits: governor.Limits{MaxStepMessages: 3}, Policy: governor.PolicyFail}
	_, stats, err := governedRun(t, "a.c", doc, ModeCount, cfg, nil)
	var le *governor.LimitError
	if !errors.As(err, &le) || le.Resource != governor.ResStepMessages {
		t.Fatalf("want step-messages LimitError, got %v", err)
	}
	if le.Observed != 4 || stats.Events != 1 {
		t.Errorf("tripped at event %d observing %d deliveries, want event 1 (<$>) observing 4", stats.Events, le.Observed)
	}

	// Determinations count where the store applies them. a[b] lowers to CH(a)
	// VC CH(b) OU — Fig. 11's SP, VF, VD and JO are wiring — and over
	// <a><b/></a> the six steps make
	//   <$>  4 visits + the initial activation                        =  5
	//   <a>  all four visited; CH(a)→VC, VC→CH(b) and VC→OU delivered =  7
	//   <b>  CH(b) visited; its activation becomes {v0,true}, applied =  2
	//   </b> nobody asked for it                                      =  0
	//   </a> VC and CH(b) close their scope, {v0,close} applied       =  3
	//   </$> CH(a) closes its scope                                   =  1
	// (with the connectors as nodes: 9, 11, 6, 0, 3, 1 — 30 of which 20 visits).
	_, stats, err = governedRun(t, "a[b]", `<a><b/></a>`, ModeCount,
		&governor.Config{Limits: governor.Limits{MaxStepMessages: 7}, Policy: governor.PolicyFail}, nil)
	if err != nil || stats.Deliveries != 18 || stats.Visits != 12 {
		t.Errorf("a[b]: err %v, %d deliveries of which %d visits; want 18 and 12", err, stats.Deliveries, stats.Visits)
	}
	_, stats, err = governedRun(t, "a[b]", `<a><b/></a>`, ModeCount,
		&governor.Config{Limits: governor.Limits{MaxStepMessages: 6}, Policy: governor.PolicyFail}, nil)
	if !errors.As(err, &le) || le.Observed != 7 || stats.Events != 2 {
		t.Errorf("a[b] under cap 6: %v at event %d, want 7 deliveries observed at event 2 (<a>)", err, stats.Events)
	}
}

func TestGovernorBufferedDegrade(t *testing.T) {
	// a[b] over a document whose qualifier stays undecided while content
	// streams in: the serialize-mode sink buffers until b arrives.
	doc := "<a>" + strings.Repeat("<c/>", 10) + "<b/></a>"
	cfg := &governor.Config{Limits: governor.Limits{MaxBufferedEvents: 4}, Policy: governor.PolicyDegrade}
	var results int
	net, err := Build(rpeq.MustParse("a[b]"), Options{Mode: ModeSerialize, Sink: func(Result) { results++ }, Governor: cfg})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := net.Run(xmlstream.NewScanner(strings.NewReader(doc)))
	if err != nil {
		t.Fatalf("degraded run should complete: %v", err)
	}
	if !stats.Output.Degraded {
		t.Error("sink should report Degraded")
	}
	if stats.Output.Matches != 1 {
		t.Errorf("degraded count = %d, want 1", stats.Output.Matches)
	}
	if results != 0 {
		t.Errorf("count-only mode should stop delivering results, got %d", results)
	}
	if stats.Output.MaxBufferedEvs > 5 {
		t.Errorf("buffer grew past the cap: %d", stats.Output.MaxBufferedEvs)
	}
}

func TestGovernorBufferedFail(t *testing.T) {
	doc := "<a>" + strings.Repeat("<c/>", 10) + "<b/></a>"
	cfg := &governor.Config{Limits: governor.Limits{MaxBufferedEvents: 4}, Policy: governor.PolicyFail}
	net, err := Build(rpeq.MustParse("a[b]"), Options{Mode: ModeSerialize, Sink: func(Result) {}, Governor: cfg})
	if err != nil {
		t.Fatal(err)
	}
	_, err = net.Run(xmlstream.NewScanner(strings.NewReader(doc)))
	var le *governor.LimitError
	if !errors.As(err, &le) || le.Resource != governor.ResBuffered {
		t.Fatalf("want buffered LimitError, got %v", err)
	}
}

func TestGovernorFormulaFail(t *testing.T) {
	// Nested qualifiers are the formula bomb: under _*[_*[b]] on a deep
	// chain the witness conditions mention the nested qualifier's variables,
	// so condition formulas grow with the depth (size ~23 at depth 20).
	cfg := &governor.Config{Limits: governor.Limits{MaxFormulaSize: 8}, Policy: governor.PolicyFail}
	_, _, err := governedRun(t, "_*[_*[b]]", chainDoc(20), ModeCount, cfg, nil)
	var le *governor.LimitError
	if !errors.As(err, &le) || le.Resource != governor.ResFormula {
		t.Fatalf("want formula LimitError, got %v", err)
	}
	// Formula size is irreducible: PolicyDegrade must fail, not pretend.
	cfg = &governor.Config{Limits: governor.Limits{MaxFormulaSize: 8}, Policy: governor.PolicyDegrade}
	_, _, err = governedRun(t, "_*[_*[b]]", chainDoc(20), ModeCount, cfg, nil)
	if !errors.As(err, &le) || le.Resource != governor.ResFormula || le.Policy != governor.PolicyFail {
		t.Fatalf("want fail-policy formula LimitError, got %v", err)
	}
}

func TestGovernorGenerousLimitsIdenticalResults(t *testing.T) {
	// A governor with generous caps must never change results.
	cfg := &governor.Config{Limits: governor.Limits{
		MaxFormulaSize:    1 << 20,
		MaxCandidates:     1 << 20,
		MaxBufferedEvents: 1 << 20,
		MaxStepMessages:   1 << 20,
		MaxLiveVars:       1 << 20,
		MaxDepth:          1 << 20,
	}, Policy: governor.PolicyFail}
	for _, expr := range []string{"a.c", "_*.a[c].c", "a[a[c]]", "_+[b]", "(a.b)|(a.c)"} {
		var plain, governed []string
		for _, run := range []struct {
			cfg  *governor.Config
			sink *[]string
		}{{nil, &plain}, {cfg, &governed}} {
			sink := run.sink
			net, err := Build(rpeq.MustParse(expr), Options{Mode: ModeNodes, Governor: run.cfg, Sink: func(r Result) {
				*sink = append(*sink, r.Name+"@"+itoa(r.Index))
			}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := net.Run(xmlstream.NewScanner(strings.NewReader(paperDoc))); err != nil {
				t.Fatalf("%s: %v", expr, err)
			}
		}
		if strings.Join(plain, ",") != strings.Join(governed, ",") {
			t.Errorf("%s: governed results diverge: %v vs %v", expr, governed, plain)
		}
	}
	if stats, trips := func() (Stats, int64) {
		net, _ := Build(rpeq.MustParse("a"), Options{Mode: ModeCount, Governor: cfg})
		s, _ := net.Run(xmlstream.NewScanner(strings.NewReader(paperDoc)))
		return s, s.Governor.Trips
	}(); trips != 0 {
		t.Errorf("generous limits tripped: %+v", stats.Governor)
	}
}
