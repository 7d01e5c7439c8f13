package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	spex "repro"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
)

const (
	liveTopics = 1000    // about 130 KB per ingested document
	liveChunk  = 4 << 10 // open-loop chunk size, record-aligned
	liveQuery  = "_*.Topic[editor].Title"
	// liveRate is the open-loop schedule in bytes per second. It is frozen
	// at well under half of what the seed sustains closed-loop (README), so
	// the queue the schedule could build stays empty and latency is the
	// server's own.
	liveRate = 1e6
	// frameDeadline is how late a frame may arrive before it counts as a
	// failed operation, and how long a finished ingest waits for its last
	// frames.
	frameDeadline = time.Second
	// spinWindow is how long before a chunk is due the load generator stops
	// sleeping and yields in a loop instead: the runtime's timers can fire a
	// millisecond late, which would be most of the latency being measured.
	spinWindow = 1500 * time.Microsecond
)

// spexdLive drives an in-process spexd behind a real loopback listener with
// exactly two connections: one for the ingest POSTs (and the one subscribe
// request before them) and one NDJSON result stream.
type spexdLive struct {
	doc    *document
	chunks chunking
	expect expectation
	events int64

	genS, oracleS float64
	lat           []float64 // one slot's frame latencies, reused so slots do not allocate it
	lateness      []float64 // ms each open-loop chunk left after it was due
}

func newSpexdLive(c config) (workload, error) {
	w := &spexdLive{}
	t := time.Now()
	w.doc = genTopics(c.seed, scaled(liveTopics, c.scale))
	w.genS = time.Since(t).Seconds()
	t = time.Now()
	expect, err := oracle(w.doc, []string{liveQuery}, false)
	if err != nil {
		return nil, fmt.Errorf("spexd_live: %w", err)
	}
	w.expect = expect[0]
	if err := checkTally(w.expect, w.doc.tally); err != nil {
		return nil, fmt.Errorf("spexd_live: %w", err)
	}
	if w.events, err = countEvents(w.doc.data, false); err != nil {
		return nil, fmt.Errorf("spexd_live: %w", err)
	}
	w.oracleS = time.Since(t).Seconds()
	w.chunks = chunk(w.doc, liveChunk)
	w.lat = make([]float64, 0, 1<<16)
	w.lateness = make([]float64, 0, 1<<16)
	return w, nil
}

func (w *spexdLive) name() string                  { return "spexd_live" }
func (w *spexdLive) docBytes() int                 { return len(w.doc.data) }
func (w *spexdLive) buildCost() (float64, float64) { return w.genS, w.oracleS }

// liveSession is what the frame reader checks one ingest's frames against.
type liveSession struct {
	due      []int64   // per chunk, ns since env.t0; nil in closed loop
	next     int       // position in expect.indexes of the next frame
	late     int       // frames later than frameDeadline
	lat      []float64 // ms from chunk due to frame read
	complete chan struct{}
}

// liveEnv is one running server with its two client connections.
type liveEnv struct {
	w      *spexdLive
	srv    *server.Server
	engine *obs.Metrics
	hs     *http.Server
	served chan struct{}
	tr     *http.Transport
	cl     *client.Client
	subID  string
	t0     time.Time

	cancelResults context.CancelFunc
	resultsDone   chan error

	mu         sync.Mutex
	cur        *liveSession
	wrong      int // frames out of sequence or belonging to no ingest, and wrong match counts
	trace      *tracer
	frameSpan  int
	frames     int
	frameBytes int
}

// start brings up the server and attaches both connections: everything the
// setup_s sample of this workload covers except the first ingest.
func (w *spexdLive) start() (*liveEnv, error) {
	e := &liveEnv{w: w, engine: obs.NewMetrics(), served: make(chan struct{}), t0: time.Now()}
	var err error
	if e.srv, err = server.New(server.Config{EngineMetrics: e.engine}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.hs = &http.Server{Handler: e.srv.Handler()}
	go func() {
		_ = e.hs.Serve(ln) // returns ErrServerClosed on stop
		close(e.served)
	}()
	e.tr = &http.Transport{}
	e.cl = client.New("http://"+ln.Addr().String(), &http.Client{Transport: e.tr})
	info, err := e.cl.Subscribe(context.Background(), server.SubscribeRequest{Channel: "bench", Query: liveQuery})
	if err != nil {
		e.stop()
		return nil, err
	}
	e.subID = info.ID
	ctx, cancel := context.WithCancel(context.Background())
	e.cancelResults = cancel
	e.resultsDone = make(chan error, 1)
	go func() {
		e.resultsDone <- e.cl.Results(ctx, e.subID, func(f server.Frame) error {
			e.onFrame(f)
			return nil
		})
	}()
	for e.srv.Metrics().ResultStreamsActive.Load() == 0 {
		select {
		case err := <-e.resultsDone:
			e.resultsDone = nil
			e.stop()
			return nil, fmt.Errorf("result stream ended before it attached: %v", err)
		default:
			time.Sleep(50 * time.Microsecond)
		}
	}
	return e, nil
}

// stop drains the server, which ends the result stream, then closes the
// listener and both connections and waits for every goroutine it started.
func (e *liveEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // a timeout aborts the sessions; nothing more to do about it here
	if e.resultsDone != nil {
		select {
		case <-e.resultsDone:
		case <-ctx.Done():
		}
	}
	if e.cancelResults != nil {
		e.cancelResults()
	}
	_ = e.hs.Close()
	<-e.served
	e.tr.CloseIdleConnections()
}

func (e *liveEnv) onFrame(f server.Frame) {
	now := int64(time.Since(e.t0))
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.trace != nil {
		// One span per frame, from the previous frame to this one, under
		// the pass root (always span 1).
		e.trace.end(e.frameSpan)
		e.frameSpan = e.trace.begin(1, "client.frame_read")
		e.frames++
		if line, err := json.Marshal(f); err == nil {
			e.frameBytes += len(line) + 1
		}
	}
	s := e.cur
	want := e.w.expect.indexes
	if s == nil || s.next >= len(want) || f.Index != want[s.next] {
		e.wrong++
		return
	}
	if s.due != nil {
		ms := float64(now-s.due[e.w.chunks.ofElem[f.Index]]) / 1e6
		s.lat = append(s.lat, ms)
		if ms > float64(frameDeadline/time.Millisecond) {
			s.late++
		}
	}
	if s.next++; s.next == len(want) {
		close(s.complete)
	}
}

// ingest POSTs one document and waits for the response and for the last
// expected frame. It reports the wall time and how many of the operations —
// one per expected frame plus the POST itself — failed.
func (e *liveEnv) ingest(body io.Reader, s *liveSession) (d time.Duration, failed int) {
	want := len(e.w.expect.indexes)
	s.complete = make(chan struct{})
	if want == 0 {
		close(s.complete)
	}
	e.mu.Lock()
	e.cur = s
	e.mu.Unlock()
	// No ingest here takes a second; the deadline only keeps a wedged
	// server from hanging the run.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	t := time.Now()
	sum, err := e.cl.Ingest(ctx, "bench", body)
	select {
	case <-s.complete:
	case <-time.After(frameDeadline):
	}
	d = time.Since(t)
	e.mu.Lock()
	e.cur = nil
	failed = want - s.next + s.late
	if err != nil {
		failed++
	} else if sum.Matches != int64(want) {
		e.wrong++
	}
	e.mu.Unlock()
	return d, failed
}

func waitUntil(due time.Time) {
	if d := time.Until(due) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// closedPass ingests the document as fast as the server takes it.
func (e *liveEnv) closedPass() (time.Duration, int) {
	return e.ingest(bytes.NewReader(e.w.doc.data), &liveSession{})
}

// openPass ingests the document on the liveRate schedule and returns the
// answer latencies, each measured from when its chunk was due.
func (e *liveEnv) openPass(lat []float64) ([]float64, int) {
	w := e.w
	// The schedule starts a little ahead, so the request line and headers
	// are out before the first chunk is due.
	start := int64(time.Since(e.t0)) + int64(2*time.Millisecond)
	due := make([]int64, len(w.chunks.ends))
	for i := range due {
		from := 0
		if i > 0 {
			from = w.chunks.ends[i-1]
		}
		due[i] = start + int64(float64(from)/liveRate*1e9)
	}
	// The request body releases each chunk when it is due, however far the
	// server has got with the ones before.
	body := newChunkReader(w.doc, &w.chunks)
	body.before = func(i int) {
		at := e.t0.Add(time.Duration(due[i]))
		waitUntil(at)
		if len(w.lateness) < cap(w.lateness) {
			w.lateness = append(w.lateness, float64(time.Since(at))/1e6)
		}
	}
	s := &liveSession{due: due, lat: lat}
	_, failed := e.ingest(body, s)
	return s.lat, failed
}

func (w *spexdLive) ops() int { return len(w.expect.indexes) + 1 }

func (w *spexdLive) slot(deadline time.Time, acc *samples) {
	for acc.attempted == 0 || time.Now().Before(deadline) {
		w.cycle(acc)
	}
}

// cycle brings up a fresh server (that and a first ingest are one setup_s
// sample), ingests closed-loop for as long as one open-loop pass takes, and
// then makes that open-loop pass: half the time closed, half open.
func (w *spexdLive) cycle(acc *samples) {
	runtime.GC()
	t := time.Now()
	e, err := w.start()
	if err != nil {
		acc.op(false)
		return
	}
	defer e.stop()
	record := func(failed int) {
		acc.attempted += w.ops()
		acc.failed += failed
	}
	started := time.Since(t)
	d, failed := e.closedPass()
	record(failed)
	if failed == 0 {
		acc.setup = append(acc.setup, time.Since(t).Seconds())
		acc.first.add([]int64{int64(started), int64(d)})
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	openFor := time.Duration(float64(len(w.doc.data)) / liveRate * float64(time.Second))
	closedUntil := time.Now().Add(openFor)
	for passes := 0; passes == 0 || time.Now().Before(closedUntil); passes++ {
		d, failed := e.closedPass()
		record(failed)
		acc.events += w.events
		if failed == 0 {
			acc.mbps = append(acc.mbps, float64(len(w.doc.data))/1e6/d.Seconds())
			acc.steady.add([]int64{int64(d)})
		}
	}
	lat, failed := e.openPass(w.lat[:0])
	record(failed)
	acc.events += w.events
	runtime.ReadMemStats(&m1)
	acc.allocB += m1.TotalAlloc - m0.TotalAlloc
	acc.addLatencies(lat)
	e.mu.Lock()
	acc.wrong += e.wrong
	e.mu.Unlock()
}

// liveHeapKB probes the whole process — server, session and both connections
// — from inside the request body, just before the chunk that crosses the
// document midpoint is sent.
func (w *spexdLive) liveHeapKB() (float64, error) {
	e, err := w.start()
	if err != nil {
		return 0, err
	}
	defer e.stop()
	if _, failed := e.closedPass(); failed > 0 {
		return 0, errors.New("warm-up ingest failed")
	}
	var kb []float64
	for i := 0; i < 3; i++ {
		rd := newChunkReader(w.doc, &w.chunks)
		s := &liveSession{}
		var mid uint64
		rd.atMidpoint(func(chunk int) {
			// Frames still on their way to the client are not state the
			// server holds mid-stream: wait until every record sent so far
			// has been answered.
			sent := sort.Search(len(w.expect.indexes), func(k int) bool {
				return int(w.chunks.ofElem[w.expect.indexes[k]]) >= chunk
			})
			for wait := time.Now().Add(frameDeadline); time.Now().Before(wait); time.Sleep(100 * time.Microsecond) {
				e.mu.Lock()
				arrived := s.next
				e.mu.Unlock()
				if arrived >= sent {
					break
				}
			}
			mid = heapNow()
		})
		before := heapNow()
		if _, failed := e.ingest(rd, s); failed > 0 {
			return 0, errors.New("probe ingest failed")
		}
		kb = append(kb, (float64(mid)-float64(before))/1024)
	}
	return median(kb), nil
}

// spanReader is the traced request body: the time between one Read
// returning and the next being asked for is the time the transport spent
// writing that chunk to the server.
type spanReader struct {
	rd     *chunkReader
	tr     *tracer
	parent int
	open   int
}

func (r *spanReader) Read(p []byte) (int, error) {
	if r.open != 0 {
		r.tr.end(r.open)
	}
	n, err := r.rd.Read(p)
	r.open = 0
	if err == nil {
		r.open = r.tr.begin(r.parent, "client.chunk_write")
	}
	return n, err
}

// histogramMean is the mean of one of the server's histograms. Their buckets
// stop at 65 µs, below nearly every value seen here, so no quantile can be
// read from them; sum and count are exact.
func histogramMean(h *obs.Histogram) float64 {
	if h.Count() == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(h.Count())
}

func (w *spexdLive) traced(budget time.Duration, ref reference) (map[string]float64, []spanRecord, error) {
	e, err := w.start()
	if err != nil {
		return nil, nil, err
	}
	defer e.stop()
	if _, failed := e.closedPass(); failed > 0 {
		return nil, nil, errors.New("warm-up ingest failed")
	}

	// The reference: the same subscription and bytes evaluated directly,
	// with no server in between. It takes turns with the traced ingests, so
	// both get the same number of tries at the same hour, and each reports
	// its fastest.
	q, err := spex.Compile(liveQuery)
	if err != nil {
		return nil, nil, err
	}
	direct := math.Inf(1)
	evaluateDirectly := func() error {
		var hits int64
		set := spex.NewSet([]*spex.Query{q}, func(int, spex.Match) { hits++ })
		t := time.Now()
		if err := set.Evaluate(bytes.NewReader(w.doc.data)); err != nil {
			return err
		}
		direct = min(direct, time.Since(t).Seconds())
		if hits != w.expect.count {
			return errors.New("direct evaluation differs from the oracle")
		}
		return nil
	}

	// Traced closed-loop ingests; the fastest one is reported and written out.
	var (
		tr      tracer
		pass    float64
		blocked int64
		spans   []spanRecord
	)
	deadline := time.Now().Add(budget / 2)
	for n := 1; n <= 3 || time.Now().Before(deadline); n++ {
		runtime.GC()
		if err := evaluateDirectly(); err != nil {
			return nil, nil, err
		}
		tr.reset(n)
		root := tr.begin(0, "pass")
		e.mu.Lock()
		e.trace, e.frames, e.frameBytes = &tr, 0, 0
		e.frameSpan = tr.begin(root, "client.frame_read")
		e.mu.Unlock()
		ing := tr.begin(root, "client.ingest")
		body := &spanReader{rd: newChunkReader(w.doc, &w.chunks), tr: &tr, parent: ing}
		d, failed := e.ingest(body, &liveSession{})
		tr.end(ing)
		e.mu.Lock()
		tr.end(e.frameSpan)
		e.trace = nil
		e.mu.Unlock()
		tr.end(root)
		if failed > 0 {
			return nil, nil, fmt.Errorf("traced ingest %d: %d operations failed", n, failed)
		}
		if spans == nil || d.Seconds() < pass {
			pass, blocked, spans = d.Seconds(), 0, tr.records(w.name())
			for _, s := range tr.spans {
				if s.name == "client.chunk_write" {
					blocked += s.end - s.start
				}
			}
		}
	}

	// Fifty subscribe/unsubscribe round trips on a second channel.
	var subMs []float64
	for i := 0; i < 50; i++ {
		t := time.Now()
		info, err := e.cl.Subscribe(context.Background(), server.SubscribeRequest{Channel: "bench2", Query: liveQuery})
		if err != nil {
			return nil, nil, err
		}
		if err := e.cl.Unsubscribe(context.Background(), info.ID); err != nil {
			return nil, nil, err
		}
		subMs = append(subMs, float64(time.Since(t))/1e6)
	}

	ev := float64(w.events)
	return map[string]float64{
		"xmlstream.events":                    ev,
		"xmlstream.bytes":                     float64(len(w.doc.data)),
		"server.ingest_overhead_ns_per_event": (pass - direct) * 1e9 / ev,
		"server.share":                        1 - direct/pass,
		"server.frames":                       float64(e.frames),
		"server.frame_bytes":                  float64(e.frameBytes),
		"server.rejected":                     float64(e.srv.Metrics().RejectedTotal.Load()),
		// The same histograms /metrics exposes as spex_server_frame_flush_ns
		// and spex_stream_latency_ns.
		"server.frame_flush_mean_us":    histogramMean(&e.srv.Metrics().FrameFlushNs) / 1e3,
		"server.engine_latency_mean_us": histogramMean(&e.engine.StreamLatencyNs) / 1e3,
		"server.chunk_write_blocked_ms": float64(blocked) / 1e6,
		"server.subscribe_ms_p50":       median(subMs),
		"loadgen.lateness_p95_ms":       quantile(w.lateness, 0.95),
		"trace.overhead_ratio":          pass / ref.passSeconds,
	}, spans, nil
}
