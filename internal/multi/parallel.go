package multi

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// Default tuning for the parallel SDI engine. Batches amortize the channel
// synchronization over many events (a per-event send would cost more than
// evaluating the event); the queue depth bounds how far a fast feeder can
// run ahead of a slow shard before blocking — backpressure, not growth.
const (
	DefaultBatchSize  = 256
	DefaultQueueDepth = 4
)

// ParallelOptions tune a ParallelSet. The zero value is ready to use:
// GOMAXPROCS shards, default batching.
type ParallelOptions struct {
	// Shards is the number of worker shards; 0 means runtime.GOMAXPROCS(0).
	// The subscription set is partitioned over the shards; every shard sees
	// the whole event stream.
	Shards int
	// BatchSize is the number of events per broadcast batch; 0 means
	// DefaultBatchSize. Smaller batches lower answer latency, larger ones
	// raise throughput.
	BatchSize int
	// QueueDepth is the per-shard inbound queue capacity in batches; 0
	// means DefaultQueueDepth. The feeder blocks when a shard's queue is
	// full (backpressure).
	QueueDepth int
	// Assign maps a subscription index to a shard in [0, shards); nil means
	// round-robin. Cross-validation tests shuffle assignments to prove the
	// partition cannot change answers.
	Assign func(subIndex, shards int) int
	// Metrics, when non-nil, receives live instrumentation: stream-side
	// counters written by the feeding goroutine, per-shard instruments
	// (batches, events, hits, queue watermark, busy time) written by the
	// workers, and the Matches counter written by the sink goroutine. All
	// are readable from any goroutine mid-stream via Snapshot.
	Metrics *obs.Metrics
	// Governor attaches the resource governor to every shard's network;
	// the same caps and policy MergedSet takes through WithGovernor. A shed
	// subscription stops producing hits but the pool keeps running; a
	// fail-policy trip surfaces as the pool's error.
	Governor *governor.Config
	// TraceID stamps every trace record of every shard network with the
	// stream-scoped trace identifier (see multi.WithTraceID). The shard
	// worker goroutines also carry it as a pprof label, so profiles
	// attribute shard CPU to the originating stream.
	TraceID string
}

// eventBatch is a broadcast unit: one tape of events delivered to every
// shard. The events cross goroutines and outlive the feeder's scan step, so
// the batch owns their payload (the tape copies it in). It is
// reference-counted because all shards read the same tape; the last shard to
// finish resets it and returns it to the pool.
type eventBatch struct {
	evs  xmlstream.Tape
	refs atomic.Int32
}

func (b *eventBatch) release(pool *sync.Pool) {
	if b.refs.Add(-1) == 0 {
		b.evs.Reset()
		pool.Put(b)
	}
}

// hit is one answer tagged with its subscription's global index. The set
// engine reports nodes only — an index and an interned label, no events — so
// the Result may wait for the sink goroutine as it is.
type hit struct {
	sub int
	r   spexnet.Result
}

// hitBatch carries a shard's answers from one event batch to the sink
// goroutine.
type hitBatch struct {
	hits []hit
}

// ParallelSet evaluates a collection of subscriptions over one stream pass
// with a sharded worker pool. Subscriptions are partitioned into shards;
// each shard compiles its partition into a MergedSet, owns that network's
// mutable state exclusively and evaluates every event of the stream against
// its share of the queries. The feeding goroutine (the caller of Feed/Run)
// broadcasts batched event slices to the shards over bounded channels;
// answers funnel through a single sink goroutine, so OnHit callbacks never
// race and arrive in per-subscription document order.
type ParallelSet struct {
	subs   []Subscription
	opts   ParallelOptions
	shards []*shardWorker
	// symtab is the pool-wide symbol table: every shard engine compiles
	// against it and the feeder resolves each event's label symbol exactly
	// once, before broadcasting — the workers never touch the interner, so
	// the hot shard loops run pure integer label tests with no shared-state
	// traffic beyond the batch channels.
	symtab *xmlstream.Symtab

	batchPool sync.Pool
	hitPool   sync.Pool
	hitCh     chan *hitBatch
	cur       *eventBatch

	workerWG sync.WaitGroup
	sinkWG   sync.WaitGroup

	failed atomic.Bool
	errMu  sync.Mutex
	err    error

	// detShards counts shards whose every subscription reached its answer
	// limit; when it equals len(shards) the whole pool's answer is fixed and
	// the feeder disconnects the stream. Written by shard goroutines, read
	// by the feeder.
	detShards atomic.Int32

	closed bool
	depth  int64
}

// shardWorker is one shard: its inbound queue, its engine, and its answer
// buffer. Only the shard's goroutine touches set and hits.
type shardWorker struct {
	p  *ParallelSet
	id int
	ch chan *eventBatch
	// subs are the pool-wide indexes of the shard's subscriptions, in the
	// order its engine has them.
	subs []int
	set  *MergedSet
	sm   *obs.ShardMetrics
	hits *hitBatch
	// determined flags that this shard's engine released itself (all its
	// subscriptions reached their answer limits); later batches are dropped
	// unevaluated but still reference-released, so pooled buffers never leak.
	determined bool
}

// NewParallelSet partitions the subscriptions over a worker pool and starts
// the shard and sink goroutines. Close (or Run, which calls it) must be
// called to release them.
func NewParallelSet(subs []Subscription, opts ParallelOptions) (*ParallelSet, error) {
	if len(subs) == 0 {
		return nil, fmt.Errorf("multi: no subscriptions")
	}
	if opts.Shards <= 0 {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	if opts.Shards > len(subs) {
		opts.Shards = len(subs)
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	p := &ParallelSet{subs: subs, opts: opts, symtab: xmlstream.NewSymtab()}
	p.batchPool.New = func() any { return new(eventBatch) }
	p.hitPool.New = func() any { return &hitBatch{} }
	p.cur = p.batchPool.Get().(*eventBatch)
	p.hitCh = make(chan *hitBatch, 2*opts.Shards)

	// Partition the subscriptions.
	byShard := make([][]int, opts.Shards)
	for i := range subs {
		s := i % opts.Shards
		if opts.Assign != nil {
			s = opts.Assign(i, opts.Shards)
			if s < 0 || s >= opts.Shards {
				return nil, fmt.Errorf("multi: Assign(%d, %d) = %d out of range", i, opts.Shards, s)
			}
		}
		byShard[s] = append(byShard[s], i)
	}

	var sms []*obs.ShardMetrics
	for id := 0; id < opts.Shards; id++ {
		w := &shardWorker{
			p:    p,
			id:   id,
			ch:   make(chan *eventBatch, opts.QueueDepth),
			subs: byShard[id],
			hits: p.hitPool.Get().(*hitBatch),
		}
		if opts.Metrics != nil {
			w.sm = obs.NewShardMetrics(fmt.Sprintf("shard-%d", id))
			w.sm.Subs.Set(int64(len(byShard[id])))
			sms = append(sms, w.sm)
		}
		// Each shard evaluates wrapped subscriptions whose sinks collect
		// into the shard's hit buffer; the user's OnHit runs only in the
		// sink goroutine.
		wrapped := make([]Subscription, 0, len(byShard[id]))
		for _, gi := range byShard[id] {
			gi := gi
			wrapped = append(wrapped, Subscription{
				Name: subs[gi].Name,
				Plan: subs[gi].Plan,
				OnHit: func(_ string, r spexnet.Result) {
					w.hits.hits = append(w.hits.hits, hit{sub: gi, r: r})
				},
			})
		}
		var err error
		w.set, err = newMergedSetSym(wrapped, p.symtab,
			engineConfig{gov: opts.Governor, metrics: opts.Metrics, traceID: opts.TraceID})
		if err != nil {
			return nil, fmt.Errorf("multi: shard %d: %w", id, err)
		}
		p.shards = append(p.shards, w)
	}
	if opts.Metrics != nil {
		opts.Metrics.SetShards(sms)
	}

	for _, w := range p.shards {
		p.workerWG.Add(1)
		go w.run()
	}
	p.sinkWG.Add(1)
	go p.sink()
	return p, nil
}

// Shards returns the number of worker shards.
func (p *ParallelSet) Shards() int { return len(p.shards) }

// Symtab returns the pool-wide symbol table, for feeders that want to share
// it with their scanner so events arrive pre-resolved.
func (p *ParallelSet) Symtab() *xmlstream.Symtab { return p.symtab }

// setErr records the first error and flips the pool into draining mode.
func (p *ParallelSet) setErr(err error) {
	p.errMu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.errMu.Unlock()
	p.failed.Store(true)
}

func (p *ParallelSet) firstErr() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.err
}

// run is the shard loop: evaluate every inbound batch, release the shared
// buffer, ship the answers. After the queue closes the shard finishes its
// engine so end-of-stream answers (past conditions determined at </$>)
// still reach the sink. A panic anywhere in a shard's evaluation — a
// poisoned stream, a buggy engine path — is contained to the pool: it
// surfaces as the pool's error instead of crashing the process, which a
// long-lived server feeding many independent sessions through pools cannot
// afford.
func (w *shardWorker) run() {
	defer w.p.workerWG.Done()
	// pprof labels attribute this goroutine's CPU samples to its shard and,
	// when the pool is trace-stamped, to the originating stream — the same
	// correlation key the obs trace records carry.
	labels := []string{"spex_shard", strconv.Itoa(w.id)}
	if id := w.p.opts.TraceID; id != "" {
		labels = append(labels, "spex_trace", id)
	}
	pprof.Do(context.Background(), pprof.Labels(labels...), func(context.Context) {
		for b := range w.ch {
			w.evalBatch(b)
			b.release(&w.p.batchPool)
			w.flushHits()
		}
		w.closeSet()
		w.flushHits()
	})
}

// evalBatch feeds one batch through the shard's engine, converting panics
// into pool errors.
func (w *shardWorker) evalBatch(b *eventBatch) {
	if w.p.failed.Load() || w.determined {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			w.p.setErr(fmt.Errorf("multi: shard %d: panic: %v", w.id, r))
		}
	}()
	var start time.Time
	if w.sm != nil {
		start = time.Now()
	}
	evs := b.evs.Events()
	for i := range evs {
		if err := w.set.Feed(evs[i]); err != nil {
			w.p.setErr(fmt.Errorf("multi: shard %d: %w", w.id, err))
			break
		}
		if w.set.Determined() {
			w.determined = true
			w.p.detShards.Add(1)
			break
		}
	}
	if w.sm != nil {
		w.sm.Batches.Inc()
		w.sm.Events.Add(int64(len(evs)))
		w.sm.BusyNs.Add(time.Since(start).Nanoseconds())
	}
}

// closeSet finishes the shard's engine after the queue closes, with the
// same panic containment as evalBatch.
func (w *shardWorker) closeSet() {
	if w.p.failed.Load() {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			w.p.setErr(fmt.Errorf("multi: shard %d: panic: %v", w.id, r))
		}
	}()
	if err := w.set.Close(); err != nil {
		w.p.setErr(fmt.Errorf("multi: shard %d: %w", w.id, err))
	}
}

// flushHits ships the shard's buffered answers to the sink goroutine. The
// channel preserves each sender's order, so a subscription's answers —
// always produced by the one shard owning it — arrive in document order.
func (w *shardWorker) flushHits() {
	if len(w.hits.hits) == 0 {
		return
	}
	if w.sm != nil {
		w.sm.Hits.Add(int64(len(w.hits.hits)))
	}
	w.p.hitCh <- w.hits
	w.hits = w.p.hitPool.Get().(*hitBatch)
}

// sink is the single ordered delivery goroutine: all OnHit callbacks of all
// subscriptions run here. A panicking callback marks the pool failed rather
// than crashing the process; the remaining hit batches are drained without
// delivery.
func (p *ParallelSet) sink() {
	defer p.sinkWG.Done()
	for hb := range p.hitCh {
		p.deliver(hb)
		hb.hits = hb.hits[:0]
		p.hitPool.Put(hb)
	}
}

// deliver runs one hit batch's OnHit callbacks, converting panics into pool
// errors.
func (p *ParallelSet) deliver(hb *hitBatch) {
	if p.failed.Load() {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			p.setErr(fmt.Errorf("multi: panic in OnHit callback: %v", r))
		}
	}()
	for _, h := range hb.hits {
		sub := &p.subs[h.sub]
		if sub.OnHit != nil {
			sub.OnHit(sub.Name, h.r)
		}
		if p.opts.Metrics != nil {
			p.opts.Metrics.Matches.Inc()
		}
	}
}

// Feed pushes one event into the pool; the actual broadcast happens once
// per batch. Feed must be called from a single goroutine (the feeder).
// Missing document boundaries are synthesized by each shard's engine.
func (p *ParallelSet) Feed(ev xmlstream.Event) error {
	if p.closed {
		return fmt.Errorf("multi: parallel set already closed")
	}
	if p.failed.Load() {
		return p.firstErr()
	}
	if p.Determined() {
		// Every shard's answer is fixed; broadcasting further events would
		// only be dropped by the workers.
		return nil
	}
	if m := p.opts.Metrics; m != nil {
		m.Events.Inc()
		switch ev.Kind {
		case xmlstream.StartElement:
			m.Elements.Inc()
			p.depth++
			m.Depth.Set(p.depth)
		case xmlstream.EndElement:
			p.depth--
			m.Depth.Set(p.depth)
		}
	}
	// Resolve the label symbol once for the whole pool: shards receive
	// pre-resolved events and never touch the interner.
	if ev.Sym == 0 && (ev.Kind == xmlstream.StartElement || ev.Kind == xmlstream.EndElement) {
		ev.Sym = p.symtab.Intern(ev.Name)
	}
	p.cur.evs.Append(&ev)
	if p.cur.evs.Len() >= p.opts.BatchSize {
		p.dispatch()
	}
	return nil
}

// dispatch broadcasts the current batch to every shard. The bounded channel
// send is the backpressure point: a shard that cannot keep up stalls the
// feeder instead of queueing unboundedly.
func (p *ParallelSet) dispatch() {
	b := p.cur
	if b.evs.Len() == 0 {
		return
	}
	p.cur = p.batchPool.Get().(*eventBatch)
	b.refs.Store(int32(len(p.shards)))
	for _, w := range p.shards {
		if w.sm != nil {
			// Queue depth as seen when enqueueing, this batch included;
			// the feeder is the instrument's only writer.
			w.sm.Queue.Set(int64(len(w.ch) + 1))
		}
		w.ch <- b
	}
	if m := p.opts.Metrics; m != nil {
		hits, misses := p.symtab.Stats()
		m.SymtabSize.Set(int64(p.symtab.Len()))
		m.SymtabHits.Set(hits)
		m.SymtabMisses.Set(misses)
	}
}

// Close flushes the last batch, ends the stream on every shard, waits for
// all answers to be delivered and returns the first error.
func (p *ParallelSet) Close() error {
	if p.closed {
		return p.firstErr()
	}
	p.closed = true
	p.dispatch()
	for _, w := range p.shards {
		close(w.ch)
	}
	p.workerWG.Wait()
	close(p.hitCh)
	p.sinkWG.Wait()
	if m := p.opts.Metrics; m != nil {
		for _, w := range p.shards {
			if w.sm != nil {
				w.sm.Queue.Set(0)
			}
		}
		hits, misses := p.symtab.Stats()
		m.SymtabSize.Set(int64(p.symtab.Len()))
		m.SymtabHits.Set(hits)
		m.SymtabMisses.Set(misses)
	}
	return p.firstErr()
}

// Run drains the source through the pool and closes it.
func (p *ParallelSet) Run(src xmlstream.Source) error {
	for {
		ev, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			p.setErr(err)
			_ = p.Close()
			return err
		}
		if err := p.Feed(ev); err != nil {
			_ = p.Close()
			return err
		}
		if p.Determined() {
			break
		}
	}
	return p.Close()
}

// Determined reports whether every shard's answer is fixed (all answer
// limits reached): the feeder may disconnect the stream. Safe to call from
// the feeding goroutine while the pool runs.
func (p *ParallelSet) Determined() bool {
	return len(p.shards) > 0 && int(p.detShards.Load()) == len(p.shards)
}

// MemberCounts writes the per-subscription answer counts into dst, in
// subscription order, growing it if it is short, and returns it; valid after
// Close. Each shard reports its own subscriptions (MergedSet.MemberCounts).
func (p *ParallelSet) MemberCounts(dst []int64) []int64 {
	dst = slices.Grow(dst[:0], len(p.subs))[:len(p.subs)] // every subscription has its shard
	for _, w := range p.shards {
		for li, n := range w.set.MemberCounts(nil) {
			dst[w.subs[li]] = n
		}
	}
	return dst
}

// Matches returns MemberCounts keyed by subscription name.
func (p *ParallelSet) Matches() map[string]int64 {
	out := make(map[string]int64, len(p.subs))
	for i, n := range p.MemberCounts(nil) {
		out[p.subs[i].Name] = n
	}
	return out
}

// Snapshot returns a point-in-time view of the pool's metrics registry,
// safe from any goroutine while the pool is running. Without a registry the
// snapshot has Enabled == false.
func (p *ParallelSet) Snapshot() obs.Snapshot {
	if p.opts.Metrics == nil {
		return obs.Snapshot{}
	}
	return p.opts.Metrics.Snapshot()
}
