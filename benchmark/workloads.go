package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	spex "repro"
	"repro/internal/xmlstream"
)

// config sizes a run. main fills it from the flags; the smoke test shrinks it.
type config struct {
	seed    int64
	seconds float64 // measured time per workload
	rounds  int     // slots per workload; a slot is seconds/rounds long
	scale   float64 // input size factor, 1 for the shipped sizes
	trace   bool    // also run the traced passes for the per-layer metrics
}

// samples collects what the untraced slots of one workload measured. The
// per-pass and per-answer values of all slots are pooled.
type samples struct {
	setup     []float64 // seconds, one per cycle
	mbps      []float64 // MB/s, one per steady pass
	first     quiet     // the cycles' set-ups with their first passes
	steady    quiet     // the steady passes
	allocB    uint64    // TotalAlloc over the steady passes
	events    int64     // scanner events over the steady passes
	lat       []float64 // ms, one per delivered answer; allocated up front, full means dropped
	latSeen   int       // answers delivered, recorded or not
	attempted int
	failed    int
	wrong     int // operations whose answers differed from the oracle
}

// maxLatencySamples bounds the pooled answer latencies of one workload. run
// allocates the buffer before the first slot, so that pooling never
// allocates between the two TotalAlloc readings of a slot.
const maxLatencySamples = 1 << 20

// passLatencySamples is how many answer latencies one pass records at most:
// a workload that delivers more times every k-th answer.
const passLatencySamples = 20000

// quiet composes, out of many repetitions of the same work, the run the host
// left alone. The work is cut into segments — a pass at the moments the
// engine asks the harness's reader for the next chunk — and per segment the
// shortest time any repetition spent on it is kept. Interference from the
// host's other tenants only ever adds time and comes in bursts shorter than
// a pass over these inputs, so whole passes are never all quiet, but every
// segment is, now and then.
type quiet struct{ best []int64 }

func (q *quiet) add(seg []int64) {
	if q.best == nil {
		q.best = append(q.best, seg...)
		return
	}
	for i, d := range seg {
		q.best[i] = min(q.best[i], d)
	}
}

func (q *quiet) seconds() float64 {
	var sum int64
	for _, d := range q.best {
		sum += d
	}
	return float64(sum) / 1e9
}

func (a *samples) op(ok bool) {
	a.attempted++
	if !ok {
		a.failed++
	}
}

// addLatencies pools the answer latencies of one pass.
func (a *samples) addLatencies(ms []float64) {
	a.latSeen += len(ms)
	a.lat = append(a.lat, ms[:min(len(ms), cap(a.lat)-len(a.lat))]...)
}

// workload is one named set of inputs with the three ways the harness runs
// it: untraced slots, the mid-stream heap probe, and traced passes.
type workload interface {
	name() string
	docBytes() int
	// buildCost is what generating the inputs and running the oracle took,
	// in seconds; neither is part of any end-to-end metric.
	buildCost() (gen, oracle float64)
	// slot runs cycles until the deadline, and one in any case if the
	// workload has not run yet: everything constructed afresh and a first
	// operation (a setup_s sample), then whole operations repeated on the
	// same objects.
	slot(deadline time.Time, acc *samples)
	// liveHeapKB is the heap the evaluation holds at the document midpoint
	// over what was resident before it started.
	liveHeapKB() (float64, error)
	// traced drives the layers from the harness with spans around each and
	// returns the per-layer metrics and the spans of its fastest pass.
	traced(budget time.Duration, ref reference) (map[string]float64, []spanRecord, error)
}

// chunkReader hands the document to the engine in record-aligned chunks and
// stamps the moment each chunk became available to it.
type chunkReader struct {
	data  []byte
	c     *chunking
	pos   int
	next  int // chunk the next fresh byte belongs to
	t0    time.Time
	avail []int64 // ns since t0 at which chunk i was first returned
	// before, when set, runs just before chunk i is first returned: the
	// open-loop schedule waits in it, the heap probe measures in it.
	before func(i int)
}

func newChunkReader(d *document, c *chunking) *chunkReader {
	return &chunkReader{data: d.data, c: c, avail: make([]int64, len(c.ends)), t0: time.Now()}
}

func (r *chunkReader) rewind() { r.pos, r.next = 0, 0 }

// atMidpoint makes the reader run f once, just before it returns the chunk
// that crosses the middle of the document; f is given that chunk's number.
func (r *chunkReader) atMidpoint(f func(chunk int)) {
	r.before = func(i int) {
		if r.c.ends[i] > len(r.data)/2 {
			f(i)
			r.before = nil
		}
	}
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	if r.next == 0 || r.pos == r.c.ends[r.next-1] {
		if r.before != nil {
			r.before(r.next)
		}
		r.avail[r.next] = int64(time.Since(r.t0))
		r.next++
	}
	n := copy(p, r.data[r.pos:r.c.ends[r.next-1]])
	r.pos += n
	return n, nil
}

// sink receives the answers of a pass: it folds them into one checksum per
// query and, when a chunk reader is attached, times each against the chunk
// that carried its record.
type sink struct {
	count []int64
	sum   []uint64
	rd    *chunkReader
	lat   []float64 // ms, the current pass's
	every int       // one answer in every is timed
	seen  int
	// On the bytes path the engine never asks the harness for input, so the
	// answers are what the harness can see of a pass: tick reads the clock
	// at every tickEvery-th one, up to the capacity of ticks.
	ticks []int64 // ns since t0, the current pass's
	t0    time.Time
}

// tickEvery answers of feed_count are about 0.1 ms of work.
const tickEvery = 64

func newSink(queries int) *sink {
	return &sink{count: make([]int64, queries), sum: make([]uint64, queries)}
}

func (s *sink) reset() {
	for i := range s.count {
		s.count[i], s.sum[i] = 0, fnvOffset
	}
	s.lat, s.ticks, s.seen = s.lat[:0], s.ticks[:0], 0
}

func (s *sink) tick() {
	if s.seen++; s.seen%tickEvery == 0 && len(s.ticks) < cap(s.ticks) {
		s.ticks = append(s.ticks, int64(time.Since(s.t0)))
	}
}

func (s *sink) hit(q int, idx int64) {
	s.count[q]++
	s.sum[q] = hashIndex(s.sum[q], idx)
	if s.rd == nil {
		return
	}
	if s.seen++; s.seen%s.every == 0 && len(s.lat) < cap(s.lat) {
		s.lat = append(s.lat, float64(int64(time.Since(s.rd.t0))-s.rd.avail[s.rd.c.ofElem[idx]])/1e6)
	}
}

func (s *sink) hitXML(idx int64, xml string) {
	s.hit(0, idx)
	s.sum[0] = hashString(s.sum[0], xml)
}

// matches compares a finished pass with the oracle. A count-mode pass
// delivers no answers, so only its count can be checked.
func (s *sink) matches(expect []expectation, sums bool) bool {
	for i, e := range expect {
		if s.count[i] != e.count || sums && s.sum[i] != e.sum {
			return false
		}
	}
	return true
}

// passFunc runs one evaluation: over r, or over the in-memory document when
// r is nil and the workload has a bytes path.
type passFunc func(r io.Reader) error

// inproc is a workload evaluated in this process through the public API.
type inproc struct {
	wname   string
	doc     *document
	chunks  chunking
	queries []string
	expect  []expectation
	events  int64 // scanner events per pass under the workload's scanner options
	// fresh goes from query text to a ready evaluation delivering into s.
	fresh func(s *sink) (passFunc, error)
	// stream, on the single-query reader workloads, is fresh with stream
	// options, for the traced run's metrics and governor overhead passes.
	stream func(s *sink, opts ...spex.StreamOption) (passFunc, error)
	// bytesPath: timed passes take the document as bytes (the zero-copy
	// window), not through the chunk reader: the segments are cut at the
	// sink's ticks, and there are no answer latencies.
	bytesPath bool
	// chunkBytes is the size of the record-aligned chunks the reader hands
	// out: small enough that the engine is through one in about a
	// millisecond or less, since a chunk is also a segment of the quiet
	// composite.
	chunkBytes int
	countOnly  bool
	serialize  bool
	merged     bool

	rd    *chunkReader
	lat   []float64 // latency buffer, one pass's worth, reused so timed passes never grow it
	ticks []int64   // tick buffer of the bytes path, likewise
	seg   []int64   // segment times of the operation being timed, ns

	genS, oracleS float64
}

func (w *inproc) name() string                  { return w.wname }
func (w *inproc) docBytes() int                 { return len(w.doc.data) }
func (w *inproc) buildCost() (float64, float64) { return w.genS, w.oracleS }

// pass runs one evaluation and reports its wall time and whether the
// answers equal the oracle's. It appends the pass's segment times to w.seg:
// up to the first chunk, from each chunk to the next, and from the last
// chunk to the end; on the bytes path, from tick to tick.
func (w *inproc) pass(run passFunc, s *sink) (time.Duration, bool) {
	s.reset()
	var r io.Reader
	if !w.bytesPath {
		w.rd.rewind()
		r = w.rd
	}
	t := time.Now()
	s.t0 = t
	err := run(r)
	d := time.Since(t)
	// The marks count from the start of the pass on the bytes path, from the
	// making of the reader on the other.
	marks, at := s.ticks, int64(0)
	if r != nil {
		marks, at = w.rd.avail, int64(t.Sub(w.rd.t0))
	}
	end := at + int64(d)
	for _, next := range marks {
		w.seg = append(w.seg, next-at)
		at = next
	}
	w.seg = append(w.seg, end-at)
	return d, err == nil && s.matches(w.expect, !w.countOnly)
}

func (w *inproc) slot(deadline time.Time, acc *samples) {
	for acc.attempted == 0 || time.Now().Before(deadline) {
		w.cycle(acc)
	}
}

// cycle goes from query text to the end of a first complete pass on freshly
// constructed objects (one setup_s sample), then repeats the pass on the
// same objects for twice as long, so that a third of a slot goes to set-ups
// however long one takes.
func (w *inproc) cycle(acc *samples) {
	runtime.GC()
	s := newSink(len(w.queries))
	s.ticks = w.ticks
	t := time.Now()
	run, err := w.fresh(s)
	w.seg = append(w.seg[:0], int64(time.Since(t)))
	ok := err == nil
	if ok {
		_, ok = w.pass(run, s)
	}
	setup := time.Since(t)
	acc.op(ok)
	if err != nil {
		return
	}
	if ok {
		acc.setup = append(acc.setup, setup.Seconds())
		acc.first.add(w.seg)
	} else {
		acc.wrong++
	}

	s.lat, s.every = w.lat[:0], cap(w.lat)/passLatencySamples+1
	if !w.bytesPath {
		s.rd = w.rd
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	until := time.Now().Add(2 * setup)
	for passes := 0; passes == 0 || time.Now().Before(until); passes++ {
		w.seg = w.seg[:0]
		d, ok := w.pass(run, s)
		acc.op(ok)
		if !ok {
			acc.wrong++
			continue
		}
		acc.steady.add(w.seg)
		acc.mbps = append(acc.mbps, float64(len(w.doc.data))/1e6/d.Seconds())
		acc.events += w.events
		acc.addLatencies(s.lat)
	}
	runtime.ReadMemStats(&m1)
	acc.allocB += m1.TotalAlloc - m0.TotalAlloc
}

// heapNow returns the live heap after two collections: the second one
// empties what the first moved to the sync.Pool victim caches.
func heapNow() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func (w *inproc) liveHeapKB() (float64, error) {
	var kb []float64
	for i := 0; i < 3; i++ {
		s := newSink(len(w.queries))
		run, err := w.fresh(s)
		if err != nil {
			return 0, err
		}
		s.reset()
		rd := newChunkReader(w.doc, &w.chunks)
		var mid uint64
		rd.atMidpoint(func(int) { mid = heapNow() })
		before := heapNow()
		if err := run(rd); err != nil {
			return 0, err
		}
		kb = append(kb, (float64(mid)-float64(before))/1024)
	}
	return median(kb), nil
}

// countEvents is the number of events the scanner delivers for the document.
func countEvents(data []byte, withText bool) (int64, error) {
	sc := xmlstream.ScanBytes(data, xmlstream.WithText(withText))
	for {
		if _, err := sc.Next(); err == io.EOF {
			return sc.Events(), nil
		} else if err != nil {
			return 0, err
		}
	}
}

// finish generates the document, runs the oracle (and the generator's
// tally, when the workload has one query) and fills in the derived tables.
func (w *inproc) finish(gen func() *document) (*inproc, error) {
	t := time.Now()
	w.doc = gen()
	w.genS = time.Since(t).Seconds()
	t = time.Now()
	defer func() { w.oracleS = time.Since(t).Seconds() }()
	var err error
	if w.expect, err = oracle(w.doc, w.queries, w.serialize); err != nil {
		return nil, fmt.Errorf("%s: %w", w.wname, err)
	}
	if len(w.queries) == 1 {
		if err := checkTally(w.expect[0], w.doc.tally); err != nil {
			return nil, fmt.Errorf("%s: %w", w.wname, err)
		}
	}
	if w.events, err = countEvents(w.doc.data, w.serialize); err != nil {
		return nil, fmt.Errorf("%s: %w", w.wname, err)
	}
	w.chunks = chunk(w.doc, w.chunkBytes)
	w.rd = newChunkReader(w.doc, &w.chunks)
	answers := int64(1)
	for _, e := range w.expect {
		answers += e.count
	}
	w.lat = make([]float64, 0, answers)
	if w.bytesPath {
		w.ticks = make([]int64, 0, answers/tickEvery)
	}
	w.seg = make([]int64, 0, max(len(w.chunks.ends), cap(w.ticks))+2)
	return w, nil
}

func compileAll(queries []string) ([]*spex.Query, error) {
	out := make([]*spex.Query, len(queries))
	for i, q := range queries {
		var err error
		if out[i], err = spex.Compile(q); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func scaled(n int, scale float64) int {
	if n = int(float64(n) * scale); n < 8 {
		n = 8
	}
	return n
}

// Shipped input sizes, in records.
const (
	feedEntries   = 16000 // about 20 MB
	closureTopics = 68000 // about 9 MB
	ticketItems   = 8500  // about 4 MB
	sdiTopics     = 1900  // about 0.25 MB
	sdiSubs       = 128
)

func newFeedCount(c config) (workload, error) {
	w := &inproc{
		wname:      "feed_count",
		chunkBytes: 16 << 10,
		queries:    []string{"feed.entry.title"},
		bytesPath:  true,
		countOnly:  true,
	}
	w.fresh = func(s *sink) (passFunc, error) {
		qs, err := compileAll(w.queries)
		if err != nil {
			return nil, err
		}
		// With no callback the set's own per-answer hook only counts; this
		// one adds a call and, at every tickEvery-th answer, a clock reading.
		set := spex.NewSet(qs, func(int, spex.Match) { s.tick() })
		return func(r io.Reader) error {
			var err error
			if r == nil {
				err = set.EvaluateBytes(w.doc.data)
			} else {
				err = set.Evaluate(r)
			}
			s.count[0] = set.Counts()[0]
			return err
		}, nil
	}
	return w.finish(func() *document { return genFeed(c.seed, scaled(feedEntries, c.scale)) })
}

func newClosureQual(c config) (workload, error) {
	w := &inproc{
		wname:      "closure_qual",
		chunkBytes: 4 << 10,
		queries:    []string{"_*.Topic[editor].Title"},
	}
	w.stream = func(s *sink, opts ...spex.StreamOption) (passFunc, error) {
		q, err := spex.Compile(w.queries[0])
		if err != nil {
			return nil, err
		}
		return func(r io.Reader) error {
			_, err := q.Matches(r, func(m spex.Match) { s.hit(0, m.Index) }, opts...)
			return err
		}, nil
	}
	w.fresh = func(s *sink) (passFunc, error) { return w.stream(s) }
	return w.finish(func() *document { return genTopics(c.seed, scaled(closureTopics, c.scale)) })
}

func newExtractSerialize(c config) (workload, error) {
	w := &inproc{
		wname:      "extract_serialize",
		chunkBytes: 4 << 10,
		queries:    []string{"_*.item[state].summary"},
		serialize:  true,
	}
	w.stream = func(s *sink, opts ...spex.StreamOption) (passFunc, error) {
		q, err := spex.Compile(w.queries[0])
		if err != nil {
			return nil, err
		}
		return func(r io.Reader) error {
			_, err := q.Results(r, func(res spex.Result) { s.hitXML(res.Index, res.XML) }, opts...)
			return err
		}, nil
	}
	w.fresh = func(s *sink) (passFunc, error) { return w.stream(s) }
	return w.finish(func() *document { return genTickets(c.seed, scaled(ticketItems, c.scale)) })
}

func newSDIMerged(c config) (workload, error) {
	w := &inproc{
		wname:      "sdi_merged",
		chunkBytes: 128,
		queries:    genSubscriptions(c.seed, sdiSubs),
		merged:     true,
	}
	w.fresh = func(s *sink) (passFunc, error) {
		qs, err := compileAll(w.queries)
		if err != nil {
			return nil, err
		}
		set := spex.NewSet(qs, func(q int, m spex.Match) { s.hit(q, m.Index) }, spex.Merged())
		return set.Evaluate, nil
	}
	return w.finish(func() *document { return genTopics(c.seed, scaled(sdiTopics, c.scale)) })
}
