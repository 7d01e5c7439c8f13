// Command spexd is the SPEX streaming query daemon: a long-lived HTTP
// service where clients register standing RPEQ or XPath subscriptions on
// named channels, stream XML documents into them, and receive progressive
// answers as NDJSON frames.
//
//	spexd -addr 127.0.0.1:8080 -engine parallel:4
//
// The API:
//
//	POST   /v1/subscriptions               register a query  → subscription id
//	GET    /v1/subscriptions/{id}          subscription info
//	DELETE /v1/subscriptions/{id}          unregister
//	GET    /v1/subscriptions/{id}/results  NDJSON result stream (one frame per hit)
//	POST   /v1/channels/{ch}/ingest        stream an XML document into a channel
//	GET    /v1/channels                    list channels
//	GET    /healthz, /readyz, /metrics     liveness, readiness, Prometheus
//
// SIGINT/SIGTERM drain gracefully: new requests get 503 + Retry-After,
// in-flight sessions finish (bounded by -drain-timeout), result streams
// flush and end, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	spex "repro"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "spexd:", err)
		os.Exit(1)
	}
}

// run is the daemon body, separated from main so tests can drive it with a
// cancellable context and capture its output.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("spexd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address")
		engine       = fs.String("engine", "", "default channel sharding: merged (inline, the default) or parallel[:shards]; sequential and shared are accepted and mean merged")
		maxChannels  = fs.Int("max-channels", 0, "max named channels (0 = default, <0 = unlimited)")
		maxSubs      = fs.Int("max-subscriptions", 0, "max subscriptions process-wide")
		maxChanSubs  = fs.Int("max-channel-subscriptions", 0, "max subscriptions per channel")
		maxSessions  = fs.Int("max-sessions", 0, "max concurrent ingest sessions")
		maxInflight  = fs.Int64("max-inflight-bytes", 0, "max summed in-flight ingest bytes")
		maxDoc       = fs.Int64("max-document-bytes", 0, "max single ingest document size (0 = unlimited)")
		subBuffer    = fs.Int("sub-buffer", 0, "per-subscription result frame buffer")
		ingestTO     = fs.Duration("ingest-timeout", 0, "per-ingest deadline (0 = none)")
		govFormula   = fs.Int("gov-max-formula", 0, "governor: max condition-formula size per evaluation (0 = unlimited)")
		govCand      = fs.Int("gov-max-candidates", 0, "governor: max undecided answer candidates per query (0 = unlimited)")
		govBuffered  = fs.Int("gov-max-buffered", 0, "governor: max buffered result events per query (0 = unlimited)")
		govStepMsgs  = fs.Int("gov-max-step-messages", 0, "governor: max deliveries (transducer visits + activations delivered + determinations applied) per stream event (0 = unlimited)")
		govLiveVars  = fs.Int("gov-max-live-vars", 0, "governor: max live condition variables (0 = unlimited)")
		govDepth     = fs.Int("gov-max-depth", 0, "governor: max document nesting depth (0 = unlimited)")
		govPolicy    = fs.String("gov-policy", "fail", "governor trip policy: fail (429), degrade (count-only) or shed (drop query)")
		slowMs       = fs.Int("slow-ms", 0, "record ingests slower than this (ms) in the /debug/spex slow-stream ring (0 = off)")
		sideload     = fs.String("sideload", "", "enable POST /v1/channels/{channel}/sideload for files under this directory (mmap + zero-copy ingest)")
		drainTO      = fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown drain deadline")
		readHeaderTO = fs.Duration("read-header-timeout", 5*time.Second, "http server read-header timeout")
		idleTO       = fs.Duration("idle-timeout", 120*time.Second, "http server idle-connection timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	logf := func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	srv, err := server.New(server.Config{
		Limits: server.Limits{
			MaxChannels:                *maxChannels,
			MaxSubscriptions:           *maxSubs,
			MaxSubscriptionsPerChannel: *maxChanSubs,
			MaxSessions:                *maxSessions,
			MaxInflightBytes:           *maxInflight,
			MaxDocumentBytes:           *maxDoc,
			SubscriptionBuffer:         *subBuffer,
			IngestTimeout:              *ingestTO,
			Governor: spex.ResourceLimits{
				MaxFormulaSize:    *govFormula,
				MaxCandidates:     *govCand,
				MaxBufferedEvents: *govBuffered,
				MaxStepMessages:   *govStepMsgs,
				MaxLiveVars:       *govLiveVars,
				MaxDepth:          *govDepth,
			},
			GovernorPolicy: *govPolicy,
		},
		DefaultEngine: *engine,
		EngineMetrics: obs.NewMetrics(),
		Logf:          logf,
		SlowThreshold: time.Duration(*slowMs) * time.Millisecond,
		SideloadDir:   *sideload,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler: srv.Handler(),
		// No blanket ReadTimeout: ingest bodies stream for as long as the
		// session limits allow. Header reads and idle connections are
		// bounded.
		ReadHeaderTimeout: *readHeaderTO,
		IdleTimeout:       *idleTO,
	}
	logf("spexd: listening on http://%s", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: drain sessions and flush result streams first,
	// then close the listener (so the streams have ended and Shutdown
	// doesn't wait on them as active connections).
	logf("spexd: signal received, draining (deadline %s)", *drainTO)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	drainErr := srv.Shutdown(drainCtx)
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logf("spexd: listener shutdown: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if drainErr != nil {
		return fmt.Errorf("drain incomplete: %w", drainErr)
	}
	logf("spexd: shut down cleanly")
	return nil
}
