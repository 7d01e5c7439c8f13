package server

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	spex "repro"
	"repro/internal/setcompile"
)

// Engine is a channel's shard selection. Every channel evaluates its
// subscriptions through the one set engine (spex.Set: the query-set compiler
// and one merged network); what a channel selects is only whether that
// engine runs inline on the ingest goroutine (Shards == 0, the default) or
// sharded over a worker pool — Shards > 0 workers, or one per CPU when
// Shards < 0.
type Engine struct {
	Shards int
}

// ParseEngine parses the selection the server's subscription API, the spexd
// -engine flag and the spex CLI's -engine flag share: "parallel[:shards]"
// shards the channel, and "merged" — like the empty string and the legacy
// names "sequential" and "shared", which once picked engines that no longer
// exist — evaluates inline.
func ParseEngine(s string) (Engine, error) {
	name, arg, hasArg := strings.Cut(s, ":")
	switch name {
	case "", "merged", "shared", "sequential":
		if hasArg {
			return Engine{}, fmt.Errorf("server: engine %q takes no shard count", name)
		}
		return Engine{}, nil
	case "parallel":
		if !hasArg {
			return Engine{Shards: -1}, nil
		}
		n, err := strconv.Atoi(arg)
		if err != nil || n <= 0 {
			return Engine{}, fmt.Errorf("server: bad shard count %q", arg)
		}
		return Engine{Shards: n}, nil
	default:
		return Engine{}, fmt.Errorf("server: unknown engine %q (want merged or parallel[:shards])", s)
	}
}

// String renders the selection in the form ParseEngine accepts.
func (e Engine) String() string {
	switch {
	case e.Shards == 0:
		return "merged"
	case e.Shards < 0:
		return "parallel"
	default:
		return fmt.Sprintf("parallel:%d", e.Shards)
	}
}

// subscription is one registered standing query.
type subscription struct {
	id      string
	channel string
	query   string
	xpath   bool
	q       *spex.Query
	limit   int64 // answer cap (0 = unlimited); at limit the subscription completes
	queue   *frameQueue
	seq     atomic.Int64 // frame sequence, monotone per subscription
	hits    atomic.Int64 // answers enqueued
}

// channel is a named ingest target: a shard selection plus the
// subscriptions evaluated against every document ingested into it.
type channel struct {
	name   string
	engine Engine
	cm     *ChannelMetrics
	// comp is the channel's incremental query-set compiler: subscribe and
	// retire maintain the set-level plan one query at a time, and
	// /debug/spex reads the current program from it. It has its own lock.
	comp *setcompile.Compiler

	mu   sync.Mutex
	subs []*subscription
}

// snapshot returns the current subscription list; sessions evaluate against
// the set as of their start, unaffected by later (un)subscribes.
func (c *channel) snapshot() []*subscription {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*subscription, len(c.subs))
	copy(out, c.subs)
	return out
}

// sessionManager owns the channel and subscription tables, plus the live
// registry of in-flight ingest sessions the /debug/spex surface lists.
type sessionManager struct {
	mu       sync.RWMutex
	channels map[string]*channel
	subs     map[string]*subscription
	active   map[string]*session
	nextSub  atomic.Int64
	nextSess atomic.Int64
}

func newSessionManager() *sessionManager {
	return &sessionManager{
		channels: make(map[string]*channel),
		subs:     make(map[string]*subscription),
		active:   make(map[string]*session),
	}
}

// register adds a session to the live registry for the duration of its run.
func (m *sessionManager) register(sess *session) {
	m.mu.Lock()
	m.active[sess.id] = sess
	m.mu.Unlock()
}

func (m *sessionManager) unregister(sess *session) {
	m.mu.Lock()
	delete(m.active, sess.id)
	m.mu.Unlock()
}

// activeSessions returns the live sessions, ordered by id.
func (m *sessionManager) activeSessions() []*session {
	m.mu.RLock()
	out := make([]*session, 0, len(m.active))
	for _, sess := range m.active {
		out = append(out, sess)
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func (m *sessionManager) channelByName(name string) *channel {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.channels[name]
}

func (m *sessionManager) subscriptionByID(id string) *subscription {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.subs[id]
}

// session is one ingest pass: the channel's subscription set as of the
// session's start, compiled into a spex.Set (sharded if the channel says
// so), with every hit forwarded as a frame to its subscription's queue.
type session struct {
	id    string
	ch    *channel
	subs  []*subscription
	srv   *Server
	trace string        // stream-scoped trace id (client-sent or server-minted)
	start time.Time     // session start, for the /debug/spex age column
	bytes *atomic.Int64 // live ingest byte count (the inflightReader's), may be nil
	abort atomic.Bool   // a frame push failed on the session context
	// determined records that the pass ended early because every
	// subscription's answer limit was reached; written by run, read by the
	// ingest handler after run returns.
	determined bool
}

// newSession snapshots the channel. Subscriptions are ordered by id so the
// query-index → subscription mapping is deterministic.
func (s *Server) newSession(ch *channel, trace string) *session {
	subs := ch.snapshot()
	sort.Slice(subs, func(i, j int) bool { return subs[i].id < subs[j].id })
	return &session{
		id:    "sess-" + strconv.FormatInt(s.mgr.nextSess.Add(1), 10),
		ch:    ch,
		subs:  subs,
		srv:   s,
		trace: trace,
		start: time.Now(),
	}
}

// run evaluates one document from r against the session's subscriptions,
// returning the total answer count. Panics anywhere in the evaluation are
// contained to the session: they surface as its error, the channel and the
// daemon stay up.
func (sess *session) run(ctx context.Context, r io.Reader) (matches int64, err error) {
	if len(sess.subs) == 0 {
		// Nothing subscribed: consume the document (the client already
		// committed to sending it) and report zero answers.
		n, cerr := io.Copy(io.Discard, r)
		_ = n
		return 0, cerr
	}
	defer func() {
		if p := recover(); p != nil {
			sess.srv.metrics.PanicsTotal.Inc()
			err = fmt.Errorf("server: session %s: panic: %v", sess.id, p)
		}
	}()
	set := sess.newSet(ctx)
	sess.do(ctx, func(ctx context.Context) { err = set.EvaluateContext(ctx, r) })
	return sess.settle(set, err)
}

// runBytes is run over an in-memory document — the side-load path: the
// document is already resident (mmap'd from the side-load directory), so
// the session evaluates it through the zero-copy scanner, chunk-scanned in
// parallel when workers is non-zero (negative = one worker per CPU).
func (sess *session) runBytes(ctx context.Context, data []byte, workers int) (matches int64, err error) {
	if len(sess.subs) == 0 {
		return 0, nil
	}
	defer func() {
		if p := recover(); p != nil {
			sess.srv.metrics.PanicsTotal.Inc()
			err = fmt.Errorf("server: session %s: panic: %v", sess.id, p)
		}
	}()
	var extra []spex.SetOption
	if workers != 0 {
		extra = append(extra, spex.ParallelScan(workers))
	}
	set := sess.newSet(ctx, extra...)
	sess.do(ctx, func(ctx context.Context) { err = set.EvaluateBytesContext(ctx, data) })
	return sess.settle(set, err)
}

// newSet compiles the session's subscription snapshot into a spex.Set,
// sharded as the channel selects, with every hit forwarded as a frame to
// its subscription's queue.
func (sess *session) newSet(ctx context.Context, extra ...spex.SetOption) *spex.Set {
	queries := make([]*spex.Query, len(sess.subs))
	for i, sub := range sess.subs {
		queries[i] = sub.q
	}
	opts := append([]spex.SetOption{spex.SetTraceID(sess.trace)}, extra...)
	if n := sess.ch.engine.Shards; n != 0 {
		opts = append(opts, spex.Parallel(n))
	}
	opts = append(opts, sess.srv.setOpts...)
	m := sess.srv.metrics
	return spex.NewSet(queries, func(qi int, match spex.Match) {
		sub := sess.subs[qi]
		f := Frame{
			Sub:     sub.id,
			Channel: sess.ch.name,
			Session: sess.id,
			Seq:     sub.seq.Add(1),
			Index:   match.Index,
			Name:    match.Name,
			Trace:   sess.trace,
		}
		h := sub.hits.Add(1)
		m.HitsTotal.Inc()
		sess.ch.cm.Hits.Inc()
		if perr := sub.queue.push(ctx, f); perr != nil {
			if perr == errQueueClosed {
				// The subscription went away mid-session; its frames are
				// dropped, everyone else's keep flowing.
				m.FramesDropped.Inc()
				return
			}
			// Context error: the evaluation aborts at the next stride
			// check; remember why.
			sess.abort.Store(true)
		}
		if sub.limit > 0 && h >= sub.limit {
			// The k-th answer was the last: close the frame queue right
			// behind it and free the admission slot. The engine stops
			// evaluating this query on its own (the limit determined its
			// network), so no further hits arrive from this session.
			sess.srv.completeSubscription(sub)
		}
	}, opts...)
}

// do runs one evaluation under pprof labels that attribute its CPU samples
// to the channel, session and stream: a profile taken mid-ingest names the
// stream each hot path serves, matching the trace id on the result frames.
func (sess *session) do(ctx context.Context, eval func(context.Context)) {
	pprof.Do(ctx, pprof.Labels(
		"spex_channel", sess.ch.name,
		"spex_session", sess.id,
		"spex_trace", sess.trace,
	), eval)
}

// settle folds a finished evaluation into the session: the determinedness
// flag the ingest handler reports, and the total answer count.
func (sess *session) settle(set *spex.Set, err error) (int64, error) {
	if err != nil {
		return 0, err
	}
	sess.determined = set.Determined()
	var matches int64
	for _, n := range set.Counts() {
		matches += n
	}
	return matches, nil
}
