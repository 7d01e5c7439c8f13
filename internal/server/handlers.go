package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	spex "repro"
	"repro/internal/obs"
	"repro/internal/rpeq"
	"repro/internal/setcompile"
	"repro/internal/xmlstream"
)

// SubscribeRequest is the POST /v1/subscriptions body.
type SubscribeRequest struct {
	// Channel names the ingest channel; it is created on first use.
	Channel string `json:"channel"`
	// Query is the standing query, rpeq syntax by default.
	Query string `json:"query"`
	// XPath interprets Query as the paper's XPath fragment.
	XPath bool `json:"xpath,omitempty"`
	// Engine selects how the channel's one set engine is sharded: "merged"
	// (inline, the default) or "parallel[:shards]". The legacy engine names
	// "sequential" and "shared" are accepted and mean "merged". The
	// selection binds at channel creation and must agree with the existing
	// one afterwards. Empty defers to the channel (or the server default).
	Engine string `json:"engine,omitempty"`
	// Limit caps the subscription's answers: once Limit total hits have been
	// delivered the subscription completes — its frame queue closes (attached
	// result readers flush what is buffered and end their streams) and it is
	// removed from the channel, exactly as if it had been deleted. Within a
	// session the engine stops evaluating the limited query at the
	// determining event. The query text may also carry a trailing `limit N`
	// clause; a non-zero field overrides it.
	Limit int64 `json:"limit,omitempty"`
	// First is shorthand for Limit: 1 — deliver the first answer, then
	// complete the subscription.
	First bool `json:"first,omitempty"`
}

// SubscriptionInfo describes one registered subscription.
type SubscriptionInfo struct {
	ID      string `json:"id"`
	Channel string `json:"channel"`
	Query   string `json:"query"`
	XPath   bool   `json:"xpath,omitempty"`
	Engine  string `json:"engine"`
	Hits    int64  `json:"hits"`
	// Limit is the subscription's answer cap (0 = unlimited), whether it came
	// from the request's limit/first field or the query's own limit clause.
	Limit int64 `json:"limit,omitempty"`
}

// IngestSummary is the POST /v1/channels/{channel}/ingest response.
type IngestSummary struct {
	Session       string `json:"session"`
	Channel       string `json:"channel"`
	Subscriptions int    `json:"subscriptions"`
	Matches       int64  `json:"matches"`
	Bytes         int64  `json:"bytes"`
	// Trace is the ingest's stream-scoped trace identifier — the value the
	// client sent as X-Spex-Trace-Id, or one the server minted. Every result
	// frame the ingest produced carries the same value.
	Trace string `json:"trace"`
	// Determined reports that the session's answer became fixed before the
	// end of the document — every subscription reached its answer limit — so
	// the engine disconnected the stream at the determining event. Bytes then
	// reflects the prefix actually read, not the document's size.
	Determined bool `json:"determined,omitempty"`
}

// ChannelInfo describes one channel.
type ChannelInfo struct {
	Name          string `json:"name"`
	Engine        string `json:"engine"`
	Subscriptions int    `json:"subscriptions"`
}

// ErrorBody is the JSON error envelope every non-2xx API response carries.
type ErrorBody struct {
	Error string `json:"error"`
}

// routes builds the mux. The observability mux (the engine registry's
// /metrics with the spex_server_* section appended, /vars, /debug/pprof)
// handles everything the API patterns don't.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/subscriptions", s.gated(s.handleSubscribe))
	mux.HandleFunc("GET /v1/subscriptions/{id}", s.gated(s.handleSubscriptionInfo))
	mux.HandleFunc("DELETE /v1/subscriptions/{id}", s.gated(s.handleUnsubscribe))
	mux.HandleFunc("GET /v1/subscriptions/{id}/results", s.gated(s.handleResults))
	mux.HandleFunc("POST /v1/channels/{channel}/ingest", s.gated(s.handleIngest))
	mux.HandleFunc("POST /v1/channels/{channel}/sideload", s.gated(s.handleSideload))
	mux.HandleFunc("GET /v1/channels", s.gated(s.handleChannels))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /debug/spex", s.handleDebug)
	mux.Handle("/", obs.NewServeMux(s.engineMetrics, s.metrics.WritePrometheus))
	return mux
}

// recoverer is the outermost panic barrier: whatever a handler does, the
// daemon answers 500 and keeps serving.
func (s *Server) recoverer(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					panic(p)
				}
				s.metrics.PanicsTotal.Inc()
				s.logf("server: panic serving %s %s: %v", r.Method, r.URL.Path, p)
				s.writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p), false)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// gated refuses /v1 requests while the server drains: clients get 503 with
// Retry-After instead of work the shutdown would cut short.
func (s *Server) gated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.metrics.DrainRejectedTotal.Inc()
			s.writeError(w, http.StatusServiceUnavailable, "server is draining", true)
			return
		}
		h(w, r)
	}
}

// writeJSON answers with a JSON body (and drains the request body so the
// connection can be reused — handler hygiene every endpoint here follows).
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers with the JSON error envelope; retry adds the
// Retry-After hint load-shedding responses carry.
func (s *Server) writeError(w http.ResponseWriter, status int, msg string, retry bool) {
	if retry {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.limits.RetryAfter.Seconds())+0.5)))
	}
	s.writeJSON(w, status, ErrorBody{Error: msg})
}

// readJSON decodes a small JSON request body, bounding and draining it.
func readJSON(r *http.Request, v any) error {
	body := io.LimitReader(r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, body)
	return nil
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	var req SubscribeRequest
	if err := readJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: "+err.Error(), false)
		return
	}
	if req.Channel == "" || req.Query == "" {
		s.writeError(w, http.StatusBadRequest, "channel and query are required", false)
		return
	}
	var (
		q   *spex.Query
		err error
	)
	if req.XPath {
		q, err = spex.CompileXPath(req.Query)
	} else {
		q, err = spex.Compile(req.Query)
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad query: "+err.Error(), false)
		return
	}
	if req.First {
		if req.Limit > 1 {
			s.writeError(w, http.StatusBadRequest, "first conflicts with limit > 1", false)
			return
		}
		req.Limit = 1
	}
	if req.Limit < 0 {
		s.writeError(w, http.StatusBadRequest, "limit must be positive", false)
		return
	}
	if req.Limit > 0 {
		q = q.Limited(req.Limit)
	}
	var reqEngine Engine
	if req.Engine != "" {
		if reqEngine, err = ParseEngine(req.Engine); err != nil {
			s.writeError(w, http.StatusBadRequest, err.Error(), false)
			return
		}
	}

	s.mgr.mu.Lock()
	ch := s.mgr.channels[req.Channel]
	if ch == nil {
		if err := s.adm.admitChannel(); err != nil {
			s.mgr.mu.Unlock()
			s.metrics.RejectedTotal.Inc()
			s.writeError(w, http.StatusTooManyRequests, err.Error(), true)
			return
		}
		engine := s.defaultEngine
		if req.Engine != "" {
			engine = reqEngine
		}
		ch = &channel{name: req.Channel, engine: engine, cm: s.metrics.Channel(req.Channel),
			comp: setcompile.NewCompiler()}
		s.mgr.channels[req.Channel] = ch
		s.metrics.ChannelsActive.Add(1)
	} else if req.Engine != "" && reqEngine != ch.engine {
		s.mgr.mu.Unlock()
		s.writeError(w, http.StatusConflict,
			fmt.Sprintf("channel %q is bound to engine %s, not %s", ch.name, ch.engine, reqEngine), false)
		return
	}
	ch.mu.Lock()
	perChannel := len(ch.subs)
	ch.mu.Unlock()
	if err := s.adm.admitSubscription(perChannel); err != nil {
		s.mgr.mu.Unlock()
		s.metrics.RejectedTotal.Inc()
		s.writeError(w, http.StatusTooManyRequests, err.Error(), true)
		return
	}
	sub := &subscription{
		id:      "sub-" + strconv.FormatInt(s.mgr.nextSub.Add(1), 10),
		channel: req.Channel,
		query:   req.Query,
		xpath:   req.XPath,
		q:       q,
		limit:   q.Limit(),
		queue:   newFrameQueue(s.limits.SubscriptionBuffer),
	}
	s.mgr.subs[sub.id] = sub
	ch.mu.Lock()
	ch.subs = append(ch.subs, sub)
	ch.cm.Subs.Set(int64(len(ch.subs)))
	ch.mu.Unlock()
	// Maintain the channel's incremental query-set plan. The query re-parses
	// here because the compiled spex.Query does not expose its expression
	// tree; it already parsed once above, so this cannot fail.
	var lim int64
	popts := []rpeq.ParseOption{rpeq.WithLimit(&lim)}
	if req.XPath {
		popts = append(popts, rpeq.WithXPath())
	}
	if node, perr := rpeq.Parse(req.Query, popts...); perr == nil {
		ch.comp.Add(sub.id, node, sub.limit)
	}
	s.mgr.mu.Unlock()
	s.publishSetcompile()

	s.metrics.SubscriptionsActive.Add(1)
	s.metrics.SubscriptionsTotal.Inc()
	s.writeJSON(w, http.StatusCreated, s.subscriptionInfo(sub, ch))
}

func (s *Server) subscriptionInfo(sub *subscription, ch *channel) SubscriptionInfo {
	return SubscriptionInfo{
		ID:      sub.id,
		Channel: sub.channel,
		Query:   sub.query,
		XPath:   sub.xpath,
		Engine:  ch.engine.String(),
		Hits:    sub.hits.Load(),
		Limit:   sub.limit,
	}
}

func (s *Server) handleSubscriptionInfo(w http.ResponseWriter, r *http.Request) {
	sub := s.mgr.subscriptionByID(r.PathValue("id"))
	if sub == nil {
		s.writeError(w, http.StatusNotFound, "no such subscription", false)
		return
	}
	s.writeJSON(w, http.StatusOK, s.subscriptionInfo(sub, s.mgr.channelByName(sub.channel)))
}

func (s *Server) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	sub := s.mgr.subscriptionByID(r.PathValue("id"))
	if sub == nil || !s.retireSubscription(sub) {
		s.writeError(w, http.StatusNotFound, "no such subscription", false)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// retireSubscription unregisters a subscription and reports whether it was
// still registered. The queue closes after unregistering: in-flight sessions
// drop the subscription's remaining frames; attached readers flush what is
// queued and end their streams. Both the DELETE handler and answer-limit
// completion funnel through here, so a race between them releases the
// admission slot exactly once.
func (s *Server) retireSubscription(sub *subscription) bool {
	s.mgr.mu.Lock()
	if _, ok := s.mgr.subs[sub.id]; !ok {
		s.mgr.mu.Unlock()
		return false
	}
	delete(s.mgr.subs, sub.id)
	ch := s.mgr.channels[sub.channel]
	if ch != nil {
		ch.mu.Lock()
		for i, cs := range ch.subs {
			if cs == sub {
				ch.subs = append(ch.subs[:i], ch.subs[i+1:]...)
				break
			}
		}
		ch.cm.Subs.Set(int64(len(ch.subs)))
		ch.mu.Unlock()
		ch.comp.Remove(sub.id)
	}
	s.mgr.mu.Unlock()
	if ch != nil {
		s.publishSetcompile()
	}

	sub.queue.close()
	s.adm.releaseSubscription()
	s.metrics.SubscriptionsActive.Add(-1)
	return true
}

// publishSetcompile re-aggregates every channel's compiler statistics into
// the engine registry's spex_setcompile_* gauges, so the daemon's /metrics
// reflects the standing corpus rather than the last session.
func (s *Server) publishSetcompile() {
	s.mgr.mu.RLock()
	comps := make([]*setcompile.Compiler, 0, len(s.mgr.channels))
	for _, ch := range s.mgr.channels {
		comps = append(comps, ch.comp)
	}
	s.mgr.mu.RUnlock()
	var naive, merged, pruned, collapsed, contained int
	for _, c := range comps {
		st := c.Stats()
		naive += st.NaiveTransducers
		merged += st.MergedTransducers
		pruned += st.Pruned
		collapsed += st.Collapsed
		contained += st.Contained
	}
	s.engineMetrics.SetSetcompile(naive, merged, pruned, collapsed, contained)
}

// completeSubscription retires a subscription whose answer limit has been
// reached — the limit/first contract: the k-th answer is the last, so the
// frame queue closes right behind it and the admission slot frees without
// waiting for the client to unsubscribe. Called from a session's hit path;
// idempotent across sessions racing on the same subscription.
func (s *Server) completeSubscription(sub *subscription) {
	if s.retireSubscription(sub) {
		s.metrics.SubscriptionsCompleted.Inc()
	}
}

func (s *Server) handleChannels(w http.ResponseWriter, r *http.Request) {
	s.mgr.mu.RLock()
	out := make([]ChannelInfo, 0, len(s.mgr.channels))
	for _, ch := range s.mgr.channels {
		ch.mu.Lock()
		n := len(ch.subs)
		ch.mu.Unlock()
		out = append(out, ChannelInfo{Name: ch.name, Engine: ch.engine.String(), Subscriptions: n})
	}
	s.mgr.mu.RUnlock()
	sortChannels(out)
	s.writeJSON(w, http.StatusOK, out)
}

func sortChannels(chs []ChannelInfo) {
	for i := 1; i < len(chs); i++ {
		for j := i; j > 0 && chs[j].Name < chs[j-1].Name; j-- {
			chs[j], chs[j-1] = chs[j-1], chs[j]
		}
	}
}

// inflightReader charges every chunk of an ingest body against the
// admission budget and the byte instruments as it streams through. The
// running count is atomic because the /debug/spex surface reads it from
// other goroutines while the session streams.
type inflightReader struct {
	r    io.Reader
	sess *session
	read atomic.Int64
}

func (ir *inflightReader) Read(p []byte) (int, error) {
	n, err := ir.r.Read(p)
	if n > 0 {
		ir.read.Add(int64(n))
		srv := ir.sess.srv
		srv.adm.inflight.Add(int64(n))
		srv.metrics.InflightBytes.Add(int64(n))
		srv.metrics.IngestBytesTotal.Add(int64(n))
		ir.sess.ch.cm.IngestBytes.Add(int64(n))
	}
	return n, err
}

// TraceHeader is the request header an ingest client sets to name its
// stream; absent, the server mints an identifier. Either way the ingest
// summary, every result frame and the engine's trace records carry it.
const TraceHeader = "X-Spex-Trace-Id"

// mintTraceID returns a fresh 16-hex-digit stream identifier.
func mintTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is not worth failing an ingest over; fall back
		// to a per-process counter that still distinguishes streams.
		return "trace-" + strconv.FormatInt(fallbackTrace.Add(1), 10)
	}
	return hex.EncodeToString(b[:])
}

var fallbackTrace atomic.Int64

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ch := s.mgr.channelByName(r.PathValue("channel"))
	if ch == nil {
		s.writeError(w, http.StatusNotFound, "no such channel (subscribe first)", false)
		return
	}
	trace := r.Header.Get(TraceHeader)
	if trace == "" {
		trace = mintTraceID()
	}
	w.Header().Set(TraceHeader, trace)
	if err := s.adm.admitSession(); err != nil {
		s.metrics.RejectedTotal.Inc()
		s.writeError(w, http.StatusTooManyRequests, err.Error(), true)
		return
	}
	defer s.adm.releaseSession()

	// Register with the drain group before re-checking draining: Shutdown
	// flips the flag and then waits, so every session either sees the flag
	// here or is waited for.
	s.ingestWG.Add(1)
	defer s.ingestWG.Done()
	if s.draining.Load() {
		s.metrics.DrainRejectedTotal.Inc()
		s.writeError(w, http.StatusServiceUnavailable, "server is draining", true)
		return
	}

	// The session context: the request's, bounded by the ingest deadline,
	// and cancelled outright if a drain deadline expires (hardCtx).
	ctx := r.Context()
	var cancel context.CancelFunc
	if s.limits.IngestTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.limits.IngestTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	stop := context.AfterFunc(s.hardCtx, cancel)
	defer stop()
	// A session blocked inside r.Body.Read does not see a context
	// cancellation; expiring the connection's read deadline unblocks it.
	rc := http.NewResponseController(w)
	stopRead := context.AfterFunc(ctx, func() { _ = rc.SetReadDeadline(time.Now()) })
	defer stopRead()

	sess := s.newSession(ch, trace)
	s.metrics.SessionsActive.Add(1)
	s.metrics.SessionsTotal.Inc()
	ch.cm.Sessions.Inc()
	defer s.metrics.SessionsActive.Add(-1)

	var body io.Reader = r.Body
	if s.limits.MaxDocumentBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.limits.MaxDocumentBytes)
	}
	ir := &inflightReader{r: body, sess: sess}
	sess.bytes = &ir.read
	s.mgr.register(sess)
	matches, err := sess.run(ctx, ir)
	s.mgr.unregister(sess)
	read := ir.read.Load()
	s.recordSlow(sess, read, matches, err)
	// Clear any expired read deadline; if the cancellation fired it may
	// also have poisoned the connection's background read, so a cancelled
	// session's connection is not offered for reuse.
	stopRead()
	_ = rc.SetReadDeadline(time.Time{})
	if ctx.Err() != nil {
		w.Header().Set("Connection", "close")
	}
	s.adm.inflight.Add(-read)
	s.metrics.InflightBytes.Add(-read)
	if err != nil {
		// A read unblocked by the deadline above surfaces as an i/o timeout;
		// report the cancellation that caused it.
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		s.metrics.SessionsFailed.Inc()
		if errors.Is(err, spex.ErrResourceLimit) {
			s.metrics.GovernorRejected.Inc()
		}
		s.logf("server: session %s on %s failed: %v", sess.id, ch.name, err)
		s.writeError(w, ingestStatus(err), fmt.Sprintf("session %s: %v", sess.id, err), retryableIngest(err))
		return
	}
	s.writeJSON(w, http.StatusOK, IngestSummary{
		Session:       sess.id,
		Channel:       ch.name,
		Subscriptions: len(sess.subs),
		Matches:       matches,
		Bytes:         read,
		Trace:         trace,
		Determined:    sess.determined,
	})
}

// SideloadRequest is the POST /v1/channels/{channel}/sideload body.
type SideloadRequest struct {
	// File names the document to evaluate, relative to the server's
	// side-load directory; paths escaping the directory are rejected.
	File string `json:"file"`
	// Workers selects the ingest mode: 0 scans serially on the zero-copy
	// engine, a positive count parallel chunk-scans with that many workers,
	// negative means one worker per CPU.
	Workers int `json:"workers,omitempty"`
}

// handleSideload is ingest without the wire: the client names a file under
// the configured side-load directory and the server mmaps it and streams it
// through the channel's subscription set in place — the zero-copy fast path,
// parallel chunk-scanned when the request asks for workers. The session
// lifecycle (admission, drain gating, timeout, slow-stream recording,
// metrics) matches handleIngest; only the document source differs.
func (s *Server) handleSideload(w http.ResponseWriter, r *http.Request) {
	if s.sideloadDir == "" {
		s.writeError(w, http.StatusNotFound, "side-loading is not enabled (no side-load directory configured)", false)
		return
	}
	ch := s.mgr.channelByName(r.PathValue("channel"))
	if ch == nil {
		s.writeError(w, http.StatusNotFound, "no such channel (subscribe first)", false)
		return
	}
	var req SideloadRequest
	if err := readJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), false)
		return
	}
	clean := filepath.Clean(req.File)
	if req.File == "" || filepath.IsAbs(clean) || clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		s.writeError(w, http.StatusBadRequest, "file must be a relative path inside the side-load directory", false)
		return
	}
	trace := r.Header.Get(TraceHeader)
	if trace == "" {
		trace = mintTraceID()
	}
	w.Header().Set(TraceHeader, trace)
	if err := s.adm.admitSession(); err != nil {
		s.metrics.RejectedTotal.Inc()
		s.writeError(w, http.StatusTooManyRequests, err.Error(), true)
		return
	}
	defer s.adm.releaseSession()

	s.ingestWG.Add(1)
	defer s.ingestWG.Done()
	if s.draining.Load() {
		s.metrics.DrainRejectedTotal.Inc()
		s.writeError(w, http.StatusServiceUnavailable, "server is draining", true)
		return
	}

	doc, err := xmlstream.OpenFile(filepath.Join(s.sideloadDir, clean))
	if err != nil {
		s.writeError(w, http.StatusNotFound, fmt.Sprintf("side-load: %v", err), false)
		return
	}
	defer doc.Close()
	size := int64(doc.Len())
	if s.limits.MaxDocumentBytes > 0 && size > s.limits.MaxDocumentBytes {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("side-load: document is %d bytes, limit %d", size, s.limits.MaxDocumentBytes), false)
		return
	}

	ctx := r.Context()
	var cancel context.CancelFunc
	if s.limits.IngestTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.limits.IngestTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	stop := context.AfterFunc(s.hardCtx, cancel)
	defer stop()

	sess := s.newSession(ch, trace)
	s.metrics.SessionsActive.Add(1)
	s.metrics.SessionsTotal.Inc()
	s.metrics.SideloadsTotal.Inc()
	ch.cm.Sessions.Inc()
	defer s.metrics.SessionsActive.Add(-1)
	s.metrics.IngestBytesTotal.Add(size)
	ch.cm.IngestBytes.Add(size)

	var read atomic.Int64
	read.Store(size)
	sess.bytes = &read
	s.mgr.register(sess)
	matches, err := sess.runBytes(ctx, doc.Data(), req.Workers)
	s.mgr.unregister(sess)
	s.recordSlow(sess, size, matches, err)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		s.metrics.SessionsFailed.Inc()
		if errors.Is(err, spex.ErrResourceLimit) {
			s.metrics.GovernorRejected.Inc()
		}
		s.logf("server: session %s on %s failed: %v", sess.id, ch.name, err)
		s.writeError(w, ingestStatus(err), fmt.Sprintf("session %s: %v", sess.id, err), retryableIngest(err))
		return
	}
	s.writeJSON(w, http.StatusOK, IngestSummary{
		Session:       sess.id,
		Channel:       ch.name,
		Subscriptions: len(sess.subs),
		Matches:       matches,
		Bytes:         size,
		Trace:         trace,
		Determined:    sess.determined,
	})
}

// ingestStatus maps a session error to its response status: document too
// large → 413, a governor resource-limit trip under the fail policy → 429
// (the document exhausted the evaluator's configured budget; retry against
// a less loaded deployment or with a narrower query), deadline/cancellation
// (a stalled reader's backpressure, a drain abort, a client disconnect) →
// 503, anything else (malformed XML chiefly) → 400.
func ingestStatus(err error) int {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, spex.ErrResourceLimit):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// retryableIngest marks the load-shedding statuses that carry Retry-After.
func retryableIngest(err error) bool {
	s := ingestStatus(err)
	return s == http.StatusServiceUnavailable || s == http.StatusTooManyRequests
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	sub := s.mgr.subscriptionByID(r.PathValue("id"))
	if sub == nil {
		s.writeError(w, http.StatusNotFound, "no such subscription", false)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, "streaming unsupported by connection", false)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush() // commit headers so the client knows the stream is attached

	s.metrics.ResultStreamsActive.Add(1)
	defer s.metrics.ResultStreamsActive.Add(-1)

	enc := json.NewEncoder(w)
	// The stream owns one Frame for its lifetime and encodes through a pointer
	// to it: handing Encode a Frame by value boxes a copy on the heap per frame.
	f := new(Frame)
	write := func() bool {
		if err := enc.Encode(f); err != nil {
			return false
		}
		fl.Flush()
		s.metrics.FramesSent.Inc()
		// Flush latency: queue residency plus encode-and-flush, the
		// client-visible lag between determination and delivery.
		if f.enqueuedNs > 0 {
			s.metrics.FrameFlushNs.Observe(time.Now().UnixNano() - f.enqueuedNs)
		}
		return true
	}
	for {
		select {
		case *f = <-sub.queue.ch:
			if !write() {
				return
			}
		case <-sub.queue.closed:
			// Unsubscribed or drained: flush what is buffered, then end
			// the stream cleanly.
			for {
				select {
				case *f = <-sub.queue.ch:
					if !write() {
						return
					}
				default:
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.limits.RetryAfter.Seconds())+0.5)))
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, "draining\n")
		return
	}
	_, _ = io.WriteString(w, "ready\n")
}
