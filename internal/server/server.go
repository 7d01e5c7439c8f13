// Package server is the serving front-end that turns the SPEX library into
// a daemon: a long-lived HTTP service where clients register standing RPEQ
// or XPath-fragment subscriptions on named channels, stream XML documents
// into those channels, and receive progressive answers as NDJSON frames the
// moment the transducer network determines them — the selective-
// dissemination deployment the paper's SDI experiments model.
//
// The package layers, bottom to top:
//
//   - sessions (session.go): every ingest snapshots its channel's
//     subscriptions into a spex.Set — one merged network, sharded over a
//     worker pool if the channel selects it — and streams the request body
//     through it once;
//   - frames (frames.go): each hit becomes an NDJSON frame pushed onto the
//     subscription's bounded queue — the backpressure point: a slow result
//     reader throttles its own channel's sessions, never the process;
//   - admission (admission.go): configurable limits on channels,
//     subscriptions, concurrent sessions and in-flight ingest bytes shed
//     load with 429 + Retry-After at the door;
//   - lifecycle (this file): context-propagated cancellation, drain-then-
//     stop graceful shutdown, and panic-isolating per-session recovery;
//   - observability (metrics.go): a spex_server_* Prometheus section
//     appended to the engine registry's existing /metrics endpoint, plus
//     /healthz and /readyz.
package server

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	spex "repro"
	"repro/internal/obs"
)

// Config configures a Server. The zero value is usable: default limits,
// unsharded channels, a fresh metrics registry.
type Config struct {
	// Limits is the admission-control configuration.
	Limits Limits
	// DefaultEngine is the shard selection for channels whose first
	// subscription does not make one: "merged" (inline, the default) or
	// "parallel[:shards]"; see ParseEngine for the legacy names.
	DefaultEngine string
	// EngineMetrics is the engine-side obs registry served on /metrics;
	// nil creates one.
	EngineMetrics *obs.Metrics
	// Logf, when non-nil, receives one line per notable server event
	// (session failures, contained panics, lifecycle transitions).
	Logf func(format string, args ...any)
	// SlowThreshold is the ingest duration above which a session is recorded
	// in the slow-stream ring surfaced on /debug/spex (spexd's -slow-ms
	// flag). Zero disables slow-stream recording; failed sessions are
	// recorded regardless of duration.
	SlowThreshold time.Duration
	// SlowRingSize caps the retained slow-stream records (default 64).
	SlowRingSize int
	// SideloadDir, when non-empty, enables POST
	// /v1/channels/{channel}/sideload: instead of streaming a document over
	// the wire, a client names a file under this directory and the server
	// mmaps it and evaluates it in place through the zero-copy ingest path
	// (optionally parallel chunk-scanned). Empty disables the route.
	SideloadDir string
}

// Server is the streaming query service. Create with New, mount Handler on
// an http.Server, and call Shutdown to drain.
type Server struct {
	limits        Limits
	defaultEngine Engine
	metrics       *Metrics
	engineMetrics *obs.Metrics
	logf          func(string, ...any)

	adm         *admission
	mgr         *sessionManager
	mux         *http.ServeMux
	sideloadDir string

	// Deep-introspection state: process start (for /debug/spex uptime), the
	// slow-stream ring, and its recording threshold.
	start    time.Time
	slow     *obs.SlowRing
	slowOver time.Duration

	// setOpts are appended to every session's spex.Set construction: the
	// engine metrics registry (so the spex_* series on /metrics are live,
	// not just exposed) and, when Limits.Governor is non-zero, the resource
	// governor bound to the same registry for spex_governor_* trips.
	setOpts []spex.SetOption

	// Lifecycle. draining flips first and gates every /v1 route; ingestWG
	// tracks in-flight sessions; hardCtx is cancelled when a drain deadline
	// expires, aborting the sessions still running.
	draining   atomic.Bool
	ingestWG   sync.WaitGroup
	hardCtx    context.Context
	hardCancel context.CancelFunc
	shutdownMu sync.Mutex
	shutdown   bool
}

// New builds a Server from cfg.
func New(cfg Config) (*Server, error) {
	eng, err := ParseEngine(cfg.DefaultEngine)
	if err != nil {
		return nil, err
	}
	em := cfg.EngineMetrics
	if em == nil {
		em = obs.NewMetrics()
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	limits := cfg.Limits.withDefaults()
	ringSize := cfg.SlowRingSize
	if ringSize <= 0 {
		ringSize = 64
	}
	s := &Server{
		limits:        limits,
		defaultEngine: eng,
		metrics:       NewMetrics(),
		engineMetrics: em,
		logf:          logf,
		adm:           &admission{limits: limits},
		mgr:           newSessionManager(),
		start:         time.Now(),
		slow:          obs.NewSlowRing(ringSize),
		slowOver:      cfg.SlowThreshold,
		sideloadDir:   cfg.SideloadDir,
	}
	s.setOpts = append(s.setOpts, spex.SetMetrics(em))
	if !limits.Governor.Zero() {
		policy, err := spex.ParsePolicy(cfg.Limits.GovernorPolicy)
		if err != nil {
			return nil, err
		}
		s.setOpts = append(s.setOpts, spex.Governed(limits.Governor, policy))
	}
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	s.mux = s.routes()
	return s, nil
}

// Handler returns the server's HTTP handler: the /v1 API, /healthz and
// /readyz, and the observability endpoints (/metrics with the spex_server_*
// section appended, /vars, /debug/pprof). Every route is wrapped in panic
// recovery, so a poisoned request cannot take the daemon down.
func (s *Server) Handler() http.Handler {
	return s.recoverer(s.mux)
}

// Metrics returns the server's instrument set (the spex_server_* section).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Limits returns the resolved admission limits.
func (s *Server) Limits() Limits { return s.limits }

// Draining reports whether graceful shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the server gracefully: new API requests are refused with
// 503 + Retry-After immediately, in-flight ingest sessions run to
// completion, then every subscription's result queue is closed so attached
// readers flush their remaining frames and end their streams. If ctx
// expires before the sessions drain, they are aborted through their
// contexts and Shutdown returns ctx's error after they unwind. Shutdown is
// idempotent; the HTTP listener's own Shutdown should follow it, so result
// handlers have ended before the listener waits on active connections.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownMu.Lock()
	defer s.shutdownMu.Unlock()
	if !s.shutdown {
		s.shutdown = true
		s.draining.Store(true)
		s.metrics.Draining.Set(1)
		s.logf("server: draining (%d active sessions)", s.metrics.SessionsActive.Load())
	}

	done := make(chan struct{})
	go func() {
		s.ingestWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Past the drain deadline: abort the stragglers and wait for them
		// to unwind — session recovery guarantees they do.
		err = ctx.Err()
		s.logf("server: drain deadline exceeded, aborting in-flight sessions")
		s.hardCancel()
		<-done
	}

	// Sessions are gone; close every queue so result streams end once
	// their buffered frames are flushed.
	s.mgr.mu.Lock()
	for _, sub := range s.mgr.subs {
		sub.queue.close()
	}
	s.mgr.mu.Unlock()
	s.logf("server: drained")
	return err
}
