package server_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	spex "repro"
	"repro/internal/httpcheck"
	"repro/internal/server"
	"repro/internal/server/client"
)

// fig1Doc is the paper's Figure 1 document.
const fig1Doc = `<a><a><c>first</c></a><b/><c>second</c></a>`

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client, *httptest.Server) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, client.New(ts.URL, ts.Client()), ts
}

// directMatches evaluates every query against doc on its own — one
// Query.Matches pass each, no set engine involved — and returns each query's
// answer sequence: the reference the server's frames must reproduce exactly.
func directMatches(t *testing.T, queries []string, xpath []bool, doc string) [][]spex.Match {
	t.Helper()
	out := make([][]spex.Match, len(queries))
	for i, qstr := range queries {
		compile := spex.Compile
		if xpath != nil && xpath[i] {
			compile = spex.CompileXPath
		}
		q, err := compile(qstr)
		if err != nil {
			t.Fatalf("compile %q: %v", qstr, err)
		}
		if _, err := q.Matches(strings.NewReader(doc), func(m spex.Match) { out[i] = append(out[i], m) }); err != nil {
			t.Fatalf("direct evaluate %q: %v", qstr, err)
		}
	}
	return out
}

// TestEndToEnd drives N subscribers across M channels concurrently — every
// engine name the wire accepts, legacy ones included, result streams
// attached throughout, several documents per channel — and cross-validates
// every subscription's frames against per-query evaluation.
func TestEndToEnd(t *testing.T) {
	_, c, _ := newTestServer(t, server.Config{})
	ctx := context.Background()

	channels := []struct {
		name   string
		engine string // as requested
		bound  string // as the server reports the channel's selection
	}{
		{"seq", "sequential", "merged"},
		{"shared", "shared", "merged"},
		{"merged", "merged", "merged"},
		{"par", "parallel:2", "parallel:2"},
	}
	queries := []string{`_*.a[b].c`, `_*.c`, `//a/c`, `a.b`}
	xpath := []bool{false, false, true, false}
	const ingests = 4

	want := directMatches(t, queries, xpath, fig1Doc)

	type subState struct {
		id     string
		frames chan server.Frame
	}
	subs := make(map[string][]*subState) // channel → one sub per query
	var readers sync.WaitGroup
	readerCtx, stopReaders := context.WithCancel(ctx)
	defer stopReaders()

	for _, ch := range channels {
		for qi, q := range queries {
			info, err := c.Subscribe(ctx, server.SubscribeRequest{
				Channel: ch.name, Query: q, XPath: xpath[qi], Engine: ch.engine,
			})
			if err != nil {
				t.Fatalf("subscribe %s/%s: %v", ch.name, q, err)
			}
			if info.Engine != ch.bound {
				t.Fatalf("subscribe %s: engine = %q, want %q", ch.name, info.Engine, ch.bound)
			}
			st := &subState{id: info.ID, frames: make(chan server.Frame, 1024)}
			subs[ch.name] = append(subs[ch.name], st)
			readers.Add(1)
			go func() {
				defer readers.Done()
				err := c.Results(readerCtx, st.id, func(f server.Frame) error {
					st.frames <- f
					return nil
				})
				if err != nil && readerCtx.Err() == nil {
					t.Errorf("results %s: %v", st.id, err)
				}
			}()
		}
	}

	// Concurrent ingest: every channel gets `ingests` copies of the
	// document, all in flight at once.
	var ingWG sync.WaitGroup
	for _, ch := range channels {
		for range ingests {
			ingWG.Add(1)
			go func() {
				defer ingWG.Done()
				sum, err := c.IngestString(ctx, ch.name, fig1Doc)
				if err != nil {
					t.Errorf("ingest %s: %v", ch.name, err)
					return
				}
				var wantMatches int64
				for _, m := range want {
					wantMatches += int64(len(m))
				}
				if sum.Matches != wantMatches {
					t.Errorf("ingest %s: matches = %d, want %d", ch.name, sum.Matches, wantMatches)
				}
			}()
		}
	}
	ingWG.Wait()

	// Per subscription: collect the expected frame count, group by session,
	// and check each session's ordered (Seq) answers equal the direct run.
	for _, ch := range channels {
		for qi, st := range subs[ch.name] {
			need := ingests * len(want[qi])
			got := make([]server.Frame, 0, need)
			timeout := time.After(10 * time.Second)
			for len(got) < need {
				select {
				case f := <-st.frames:
					got = append(got, f)
				case <-timeout:
					t.Fatalf("%s/%s: got %d frames, want %d", ch.name, queries[qi], len(got), need)
				}
			}
			bySession := make(map[string][]server.Frame)
			for _, f := range got {
				if f.Channel != ch.name || f.Sub != st.id {
					t.Fatalf("%s/%s: misrouted frame %+v", ch.name, queries[qi], f)
				}
				bySession[f.Channel+"/"+f.Session] = append(bySession[f.Channel+"/"+f.Session], f)
			}
			for sess, fs := range bySession {
				if len(fs) != len(want[qi]) {
					t.Errorf("%s/%s session %s: %d frames, want %d", ch.name, queries[qi], sess, len(fs), len(want[qi]))
					continue
				}
				// Frames from one session arrive in Seq order relative to
				// each other, but interleave with other sessions; sort by
				// the per-subscription Seq to recover the document order
				// within the session.
				for i := 1; i < len(fs); i++ {
					for j := i; j > 0 && fs[j].Seq < fs[j-1].Seq; j-- {
						fs[j], fs[j-1] = fs[j-1], fs[j]
					}
				}
				for i, f := range fs {
					if f.Index != want[qi][i].Index || f.Name != want[qi][i].Name {
						t.Errorf("%s/%s session %s frame %d: (%d,%q), want (%d,%q)",
							ch.name, queries[qi], sess, i, f.Index, f.Name, want[qi][i].Index, want[qi][i].Name)
					}
				}
			}
			// No extra frames should be pending.
			select {
			case f := <-st.frames:
				t.Errorf("%s/%s: unexpected extra frame %+v", ch.name, queries[qi], f)
			default:
			}
		}
	}

	// Subscription info reflects the accumulated hits.
	info, err := c.Subscription(ctx, subs["shared"][1].id)
	if err != nil {
		t.Fatalf("subscription info: %v", err)
	}
	if wantHits := int64(ingests * len(want[1])); info.Hits != wantHits {
		t.Errorf("sub hits = %d, want %d", info.Hits, wantHits)
	}

	stopReaders()
	readers.Wait()
}

// TestGracefulShutdown proves the drain contract: an in-flight ingest runs
// to completion, new API requests get 503 + Retry-After, result streams end
// after flushing, and Shutdown returns once everything is done.
func TestGracefulShutdown(t *testing.T) {
	s, c, ts := newTestServer(t, server.Config{})
	ctx := context.Background()

	info, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: "ch", Query: `_*.a[b].c`})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	frames := make(chan server.Frame, 16)
	readerDone := make(chan error, 1)
	go func() {
		readerDone <- c.Results(ctx, info.ID, func(f server.Frame) error {
			frames <- f
			return nil
		})
	}()

	// The reader must be attached before the drain starts refusing requests.
	waitFor(t, func() bool { return s.Metrics().ResultStreamsActive.Load() == 1 }, "result stream attached")

	// Start an ingest whose body we control: write the first half, leave
	// the request in flight.
	pr, pw := io.Pipe()
	type ingestResult struct {
		sum server.IngestSummary
		err error
	}
	ingDone := make(chan ingestResult, 1)
	go func() {
		sum, err := c.Ingest(ctx, "ch", pr)
		ingDone <- ingestResult{sum, err}
	}()
	if _, err := io.WriteString(pw, `<a><a><c>first</c></a>`); err != nil {
		t.Fatalf("write: %v", err)
	}
	waitFor(t, func() bool { return s.Metrics().SessionsActive.Load() == 1 }, "session active")

	// Drain in the background; it must block on the in-flight session.
	shutDone := make(chan error, 1)
	go func() { shutDone <- s.Shutdown(context.Background()) }()
	waitFor(t, func() bool { return s.Draining() }, "draining flag")

	// New API work is refused with 503 + Retry-After while draining.
	resp, err := ts.Client().Post(ts.URL+"/v1/subscriptions", "application/json",
		strings.NewReader(`{"channel":"ch","query":"a"}`))
	if err != nil {
		t.Fatalf("post during drain: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("subscribe during drain: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("503 during drain missing Retry-After")
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if c.Ready(ctx) {
		t.Errorf("Ready() = true while draining")
	}
	if !c.Healthy(ctx) {
		t.Errorf("Healthy() = false while draining")
	}
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned %v with a session in flight", err)
	default:
	}

	// Finish the document: the in-flight session completes and reports its
	// answer, then the drain finishes.
	if _, err := io.WriteString(pw, `<b/><c>second</c></a>`); err != nil {
		t.Fatalf("write: %v", err)
	}
	pw.Close()
	res := <-ingDone
	if res.err != nil {
		t.Fatalf("in-flight ingest failed during drain: %v", res.err)
	}
	if res.sum.Matches != 1 {
		t.Errorf("in-flight ingest matches = %d, want 1", res.sum.Matches)
	}
	if err := <-shutDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}

	// The result stream flushed the session's frame and ended cleanly.
	if err := <-readerDone; err != nil {
		t.Errorf("results stream after drain: %v", err)
	}
	select {
	case f := <-frames:
		if f.Index != 5 || f.Name != "c" {
			t.Errorf("frame = (%d,%q), want (5,%q)", f.Index, f.Name, "c")
		}
	default:
		t.Errorf("no frame flushed before the stream ended")
	}

	// Shutdown is idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// TestShutdownDeadlineAbortsSessions proves the hard path: when the drain
// context expires, stuck sessions are aborted through their contexts and
// Shutdown returns the context error after they unwind.
func TestShutdownDeadlineAbortsSessions(t *testing.T) {
	s, c, _ := newTestServer(t, server.Config{})
	ctx := context.Background()
	if _, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: "ch", Query: `_*.c`}); err != nil {
		t.Fatalf("subscribe: %v", err)
	}

	pr, pw := io.Pipe()
	defer pw.Close()
	ingDone := make(chan error, 1)
	go func() {
		_, err := c.Ingest(ctx, "ch", pr)
		ingDone <- err
	}()
	io.WriteString(pw, `<a><c/>`)
	waitFor(t, func() bool { return s.Metrics().SessionsActive.Load() == 1 }, "session active")

	dctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(dctx); err != context.DeadlineExceeded {
		t.Errorf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	select {
	case err := <-ingDone:
		if err == nil {
			t.Errorf("stuck ingest succeeded, want an abort error")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("aborted ingest did not return")
	}
	if got := s.Metrics().SessionsActive.Load(); got != 0 {
		t.Errorf("sessions active after hard shutdown = %d, want 0", got)
	}
}

// TestAdmissionLimits proves every limit sheds load with 429 + Retry-After.
func TestAdmissionLimits(t *testing.T) {
	s, c, ts := newTestServer(t, server.Config{Limits: server.Limits{
		MaxChannels:                1,
		MaxSubscriptionsPerChannel: 1,
		MaxSessions:                1,
	}})
	ctx := context.Background()

	if _, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: "only", Query: `_*.c`}); err != nil {
		t.Fatalf("first subscribe: %v", err)
	}

	wantLimited := func(t *testing.T, err error, what string) {
		t.Helper()
		apiErr, ok := err.(*client.APIError)
		if !ok {
			t.Fatalf("%s: error %v, want *client.APIError", what, err)
		}
		if apiErr.Status != http.StatusTooManyRequests {
			t.Errorf("%s: status %d, want 429", what, apiErr.Status)
		}
		if apiErr.RetryAfter <= 0 {
			t.Errorf("%s: 429 missing Retry-After", what)
		}
		if !apiErr.Temporary() {
			t.Errorf("%s: Temporary() = false for 429", what)
		}
	}

	// Per-channel subscription cap.
	_, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: "only", Query: `a`})
	wantLimited(t, err, "second subscription on channel")

	// Channel cap.
	_, err = c.Subscribe(ctx, server.SubscribeRequest{Channel: "other", Query: `a`})
	wantLimited(t, err, "second channel")

	// Session cap: hold one ingest open, refuse the next.
	pr, pw := io.Pipe()
	ingDone := make(chan error, 1)
	go func() {
		_, err := c.Ingest(ctx, "only", pr)
		ingDone <- err
	}()
	io.WriteString(pw, `<a>`)
	waitFor(t, func() bool { return s.Metrics().SessionsActive.Load() == 1 }, "session active")
	_, err = c.IngestString(ctx, "only", fig1Doc)
	wantLimited(t, err, "second session")
	io.WriteString(pw, `</a>`)
	pw.Close()
	if err := <-ingDone; err != nil {
		t.Fatalf("held ingest: %v", err)
	}

	// The sheds are visible on /metrics.
	body := httpGet(t, ts, "/metrics")
	if !strings.Contains(body, "spex_server_rejected_total 3") {
		t.Errorf("/metrics missing spex_server_rejected_total 3:\n%s", grepLines(body, "rejected"))
	}
	if s.Metrics().RejectedTotal.Load() != 3 {
		t.Errorf("RejectedTotal = %d, want 3", s.Metrics().RejectedTotal.Load())
	}
}

// TestEngineConflict: a channel's shard selection binds at creation; a
// conflicting later subscription is refused with 409.
func TestEngineConflict(t *testing.T) {
	_, c, _ := newTestServer(t, server.Config{})
	ctx := context.Background()
	if _, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: "ch", Query: `a`, Engine: "shared"}); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	_, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: "ch", Query: `b`, Engine: "parallel"})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Status != http.StatusConflict {
		t.Fatalf("conflicting engine: error %v, want 409", err)
	}
	// Same engine (and no engine) is fine.
	if _, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: "ch", Query: `b`, Engine: "shared"}); err != nil {
		t.Errorf("matching engine refused: %v", err)
	}
	if _, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: "ch", Query: `c`}); err != nil {
		t.Errorf("engine-less subscribe refused: %v", err)
	}
}

// TestEngineNamesShareOneSelection: the engine names that once picked
// different engines all parse to the one inline selection, so a channel
// created under one of them accepts a later subscription naming another;
// what still binds — and conflicts with 409 — is the shard selection: inline
// against parallel, or two different shard counts.
func TestEngineNamesShareOneSelection(t *testing.T) {
	for _, name := range []string{"", "sequential", "shared", "merged"} {
		e, err := server.ParseEngine(name)
		if err != nil || e != (server.Engine{}) {
			t.Errorf("ParseEngine(%q) = %+v, %v; want the inline zero value", name, e, err)
		}
	}
	_, c, _ := newTestServer(t, server.Config{})
	ctx := context.Background()
	cases := []struct {
		first, second string
		conflict      bool
	}{
		{"sequential", "shared", false},
		{"shared", "merged", false},
		{"merged", "sequential", false},
		{"", "merged", false},
		{"parallel:2", "parallel:2", false},
		{"merged", "parallel", true},
		{"sequential", "parallel:2", true},
		{"parallel", "shared", true},
		{"parallel:2", "parallel:3", true},
		{"parallel", "parallel:2", true},
	}
	for i, tc := range cases {
		ch := fmt.Sprintf("ch%d", i)
		if _, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: ch, Query: `a`, Engine: tc.first}); err != nil {
			t.Fatalf("%q: creating subscribe: %v", tc.first, err)
		}
		_, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: ch, Query: `b`, Engine: tc.second})
		apiErr, _ := err.(*client.APIError)
		switch {
		case tc.conflict && (apiErr == nil || apiErr.Status != http.StatusConflict):
			t.Errorf("%q then %q: error %v, want 409", tc.first, tc.second, err)
		case !tc.conflict && err != nil:
			t.Errorf("%q then %q refused: %v", tc.first, tc.second, err)
		}
	}
}

// TestBackpressure: with a 1-frame buffer and no attached reader, a hit-
// heavy session blocks on its subscription's queue until the ingest deadline
// aborts it with 503 — the slow consumer stalls its own channel only.
func TestBackpressure(t *testing.T) {
	s, c, _ := newTestServer(t, server.Config{Limits: server.Limits{
		SubscriptionBuffer: 1,
		IngestTimeout:      300 * time.Millisecond,
	}})
	ctx := context.Background()
	if _, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: "slow", Query: `_*.c`}); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	// Another channel with an attached reader must be unaffected.
	fast, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: "fast", Query: `_*.c`})
	if err != nil {
		t.Fatalf("subscribe fast: %v", err)
	}
	readerCtx, stopReader := context.WithCancel(ctx)
	defer stopReader()
	go c.Results(readerCtx, fast.ID, func(server.Frame) error { return nil })

	// A document with enough answers (and trailing events) that the stalled
	// queue is hit early and the cancellation stride check fires after.
	var doc strings.Builder
	doc.WriteString(`<a>`)
	for range 400 {
		doc.WriteString(`<c/>`)
	}
	doc.WriteString(`</a>`)

	_, err = c.IngestString(ctx, "slow", doc.String())
	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("stalled ingest: error %v, want *client.APIError", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable {
		t.Errorf("stalled ingest: status %d, want 503", apiErr.Status)
	}
	if apiErr.RetryAfter <= 0 {
		t.Errorf("stalled ingest: 503 missing Retry-After")
	}
	if got := s.Metrics().SessionsFailed.Load(); got != 1 {
		t.Errorf("SessionsFailed = %d, want 1", got)
	}

	// The healthy channel still flows.
	sum, err := c.IngestString(ctx, "fast", doc.String())
	if err != nil {
		t.Fatalf("fast ingest alongside stalled channel: %v", err)
	}
	if sum.Matches != 400 {
		t.Errorf("fast matches = %d, want 400", sum.Matches)
	}
}

// TestUnsubscribeMidStream: removing a subscription ends its result stream
// after flushing, and later sessions drop its frames without error.
func TestUnsubscribeMidStream(t *testing.T) {
	s, c, _ := newTestServer(t, server.Config{})
	ctx := context.Background()
	info, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: "ch", Query: `_*.a[b].c`})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	keep, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: "ch", Query: `_*.c`})
	if err != nil {
		t.Fatalf("subscribe keep: %v", err)
	}
	var got []server.Frame
	readerDone := make(chan error, 1)
	go func() {
		readerDone <- c.Results(ctx, info.ID, func(f server.Frame) error {
			got = append(got, f)
			return nil
		})
	}()

	// The reader must be attached before the subscription goes away, or its
	// request finds no subscription to stream from.
	waitFor(t, func() bool { return s.Metrics().ResultStreamsActive.Load() == 1 }, "result stream attached")
	if _, err := c.IngestString(ctx, "ch", fig1Doc); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if err := c.Unsubscribe(ctx, info.ID); err != nil {
		t.Fatalf("unsubscribe: %v", err)
	}
	if err := <-readerDone; err != nil {
		t.Errorf("results after unsubscribe: %v", err)
	}
	if len(got) != 1 || got[0].Index != 5 {
		t.Errorf("frames = %+v, want one frame at index 5", got)
	}
	if _, err := c.Subscription(ctx, info.ID); err == nil {
		t.Errorf("subscription info after unsubscribe: want 404")
	}

	// The channel still evaluates for the remaining subscription; the
	// removed one contributes nothing and drops nothing it shouldn't.
	sum, err := c.IngestString(ctx, "ch", fig1Doc)
	if err != nil {
		t.Fatalf("ingest after unsubscribe: %v", err)
	}
	if sum.Subscriptions != 1 || sum.Matches != 2 {
		t.Errorf("after unsubscribe: subs=%d matches=%d, want 1/2", sum.Subscriptions, sum.Matches)
	}
	_ = keep
	if got := s.Metrics().SubscriptionsActive.Load(); got != 1 {
		t.Errorf("SubscriptionsActive = %d, want 1", got)
	}
}

// TestHandlerHygiene sweeps the API's error paths through the shared
// httpcheck helper: every body has a Content-Type, not-found and bad-request
// bodies are JSON, load-shed responses carry Retry-After.
func TestHandlerHygiene(t *testing.T) {
	s, err := server.New(server.Config{Limits: server.Limits{MaxChannels: 1}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	httpcheck.Do(t, h, "GET", "/healthz", "").
		WantStatus(t, 200).WantContentType(t, "text/plain")
	httpcheck.Do(t, h, "GET", "/readyz", "").
		WantStatus(t, 200).WantContentType(t, "text/plain")
	httpcheck.Do(t, h, "GET", "/metrics", "").
		WantStatus(t, 200).WantContentType(t, "text/plain").
		WantBodyContains(t, "spex_server_sessions_total")
	httpcheck.Do(t, h, "GET", "/v1/channels", "").
		WantStatus(t, 200).WantContentType(t, "application/json")
	httpcheck.Do(t, h, "POST", "/v1/subscriptions", `{"channel":"c"}`).
		WantStatus(t, 400).WantContentType(t, "application/json")
	httpcheck.Do(t, h, "POST", "/v1/subscriptions", `not json`).
		WantStatus(t, 400).WantContentType(t, "application/json")
	httpcheck.Do(t, h, "POST", "/v1/subscriptions", `{"channel":"c","query":"(("}`).
		WantStatus(t, 400).WantContentType(t, "application/json")
	httpcheck.Do(t, h, "POST", "/v1/subscriptions", `{"channel":"c","query":"a","engine":"warp"}`).
		WantStatus(t, 400).WantContentType(t, "application/json")
	httpcheck.Do(t, h, "GET", "/v1/subscriptions/nope", "").
		WantStatus(t, 404).WantContentType(t, "application/json")
	httpcheck.Do(t, h, "DELETE", "/v1/subscriptions/nope", "").
		WantStatus(t, 404).WantContentType(t, "application/json")
	httpcheck.Do(t, h, "POST", "/v1/channels/nope/ingest", fig1Doc).
		WantStatus(t, 404).WantContentType(t, "application/json")

	httpcheck.Do(t, h, "POST", "/v1/subscriptions", `{"channel":"c","query":"a"}`).
		WantStatus(t, 201).WantContentType(t, "application/json")
	httpcheck.Do(t, h, "POST", "/v1/subscriptions", `{"channel":"d","query":"a"}`).
		WantStatus(t, 429).WantContentType(t, "application/json").WantRetryAfter(t)

	// Malformed XML → 400.
	httpcheck.Do(t, h, "POST", "/v1/channels/c/ingest", `<a><b></a>`).
		WantStatus(t, 400).WantContentType(t, "application/json")
}

// TestMaxDocumentBytes: an oversized document is refused with 413.
func TestMaxDocumentBytes(t *testing.T) {
	_, c, _ := newTestServer(t, server.Config{Limits: server.Limits{MaxDocumentBytes: 16}})
	ctx := context.Background()
	if _, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: "ch", Query: `_*.c`}); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	_, err := c.IngestString(ctx, "ch", fig1Doc)
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: error %v, want 413", err)
	}
}

// TestMetricsEndpoint: the spex_server_* section (global and per-channel)
// rides the engine registry's /metrics endpoint.
func TestMetricsEndpoint(t *testing.T) {
	_, c, ts := newTestServer(t, server.Config{})
	ctx := context.Background()
	if _, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: "m", Query: `_*.a[b].c`}); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if _, err := c.IngestString(ctx, "m", fig1Doc); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	body := httpGet(t, ts, "/metrics")
	for _, want := range []string{
		"spex_server_sessions_total 1",
		"spex_server_subscriptions_active 1",
		"spex_server_channels_active 1",
		"spex_server_hits_total 1",
		"spex_server_draining 0",
		`spex_server_channel_subs{channel="m"} 1`,
		`spex_server_channel_hits_total{channel="m"} 1`,
		"spex_events_total", // the engine registry's own section is still there
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func httpGet(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	return string(b)
}

func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return fmt.Sprint(strings.Join(out, "\n"))
}
