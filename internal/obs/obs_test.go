package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeWatermark(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Errorf("counter: %d", c.Load())
	}
	var g Gauge
	g.Set(7)
	if g.Load() != 7 {
		t.Errorf("gauge: %d", g.Load())
	}
	var w Watermark
	w.Set(3)
	w.Set(9)
	w.Set(2)
	if w.Cur() != 2 || w.Max() != 9 {
		t.Errorf("watermark: cur=%d max=%d", w.Cur(), w.Max())
	}
	w.NoteMax(20)
	if w.Cur() != 2 || w.Max() != 20 {
		t.Errorf("after NoteMax: cur=%d max=%d", w.Cur(), w.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 100, 1 << 40} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Errorf("count: %d", h.Count())
	}
	if h.Sum() != 0+1+2+3+4+100+1<<40 {
		t.Errorf("sum: %d", h.Sum())
	}
	bs := h.Buckets()
	if len(bs) != histBuckets {
		t.Fatalf("buckets: %d", len(bs))
	}
	// Bucket le=0 holds the single zero; the last bucket is cumulative over
	// everything.
	if bs[0].Le != 0 || bs[0].Count != 1 {
		t.Errorf("zero bucket: %+v", bs[0])
	}
	if bs[len(bs)-1].Count != 7 {
		t.Errorf("last bucket not cumulative: %+v", bs[len(bs)-1])
	}
	// Cumulative counts never decrease.
	for i := 1; i < len(bs); i++ {
		if bs[i].Count < bs[i-1].Count {
			t.Errorf("bucket %d decreases: %d < %d", i, bs[i].Count, bs[i-1].Count)
		}
	}
}

// TestHistogramResolvesServerLatencies: what a live spexd reads for a frame
// flush (443 µs) and for ingest-to-answer latency (591 µs) must land in
// interior buckets, each in its own power of two, and so must anything up to a
// second; the overflow bucket starts beyond that.
func TestHistogramResolvesServerLatencies(t *testing.T) {
	var h Histogram
	samples := []int64{443_000, 591_000, 1_000_000_000}
	for _, v := range samples {
		h.Observe(v)
	}
	bs := h.Buckets()
	prev, last := int64(0), len(bs)-1
	for _, v := range samples {
		i := 0
		for bs[i].Le < v {
			i++
		}
		if i >= last {
			t.Fatalf("%d ns falls in the overflow bucket (the interior ends at %d)", v, bs[last-1].Le)
		}
		if lower := bs[i-1].Le; lower < v/2 || bs[i].Count-bs[i-1].Count != 1 {
			t.Errorf("%d ns: bucket (%d, %d] holds %d samples", v, lower, bs[i].Le, bs[i].Count-bs[i-1].Count)
		}
		if bs[i].Le == prev {
			t.Errorf("%d ns shares a bucket with the previous sample", v)
		}
		prev = bs[i].Le
	}
	if bs[last-1].Le < 1_000_000_000 {
		t.Errorf("the interior ends at %d ns, want at least 1 s", bs[last-1].Le)
	}
}

func TestSnapshotConcurrentWriters(t *testing.T) {
	m := NewMetrics()
	tm := NewTransducerMetrics("0:CH(a)")
	m.SetTransducers([]*TransducerMetrics{tm})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m.Events.Inc()
			m.Depth.Set(int64(i % 8))
			tm.Out[KindActivation].Inc()
			tm.Stack.Set(int64(i % 5))
		}
	}()
	for i := 0; i < 50; i++ {
		s := m.Snapshot()
		if !s.Enabled || s.Events < 0 {
			t.Fatalf("snapshot: %+v", s)
		}
		if len(s.Transducers) != 1 || s.Transducers[0].Name != "0:CH(a)" {
			t.Fatalf("transducers: %+v", s.Transducers)
		}
	}
	close(stop)
	wg.Wait()
}

func TestShardMetricsSnapshot(t *testing.T) {
	m := NewMetrics()
	a, b := NewShardMetrics("shard-0"), NewShardMetrics("shard-1")
	m.SetShards([]*ShardMetrics{a, b})
	a.Subs.Set(3)
	a.Batches.Add(5)
	a.Events.Add(640)
	a.Hits.Add(12)
	a.Queue.Set(2)
	a.Queue.Set(1)
	a.BusyNs.Add(1_000_000)
	b.Subs.Set(2)

	s := m.Snapshot()
	if len(s.Shards) != 2 {
		t.Fatalf("shards: %+v", s.Shards)
	}
	got := s.Shards[0]
	if got.Name != "shard-0" || got.Subs != 3 || got.Batches != 5 || got.Events != 640 ||
		got.Hits != 12 || got.Queue != 1 || got.MaxQueue != 2 || got.BusyNs != 1_000_000 {
		t.Fatalf("shard-0 snapshot: %+v", got)
	}
	if s.Shards[1].Name != "shard-1" || s.Shards[1].Subs != 2 {
		t.Fatalf("shard-1 snapshot: %+v", s.Shards[1])
	}

	// The Prometheus rendering carries the per-shard series.
	var sb strings.Builder
	WritePrometheus(&sb, s)
	for _, want := range []string{
		`spex_shard_batches_total{shard="shard-0"} 5`,
		`spex_shard_events_total{shard="shard-0"} 640`,
		`spex_shard_hits_total{shard="shard-0"} 12`,
		`spex_shard_queue_max{shard="shard-0"} 2`,
		`spex_shard_subs{shard="shard-1"} 2`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

func TestRingTracerWraparound(t *testing.T) {
	r := NewRingTracer(3)
	for i := int64(1); i <= 5; i++ {
		r.Trace(TraceEvent{Step: i, Node: "CH(a)", Kind: KindActivation, Msg: "[true]"})
	}
	evs := r.Events()
	if len(evs) != 3 || evs[0].Step != 3 || evs[2].Step != 5 {
		t.Fatalf("ring events: %+v", evs)
	}
	if r.Total() != 5 {
		t.Errorf("total: %d", r.Total())
	}
}

func TestTraceFilter(t *testing.T) {
	var got []TraceEvent
	tr := FilterTracer(TracerFunc(func(ev TraceEvent) { got = append(got, ev) }),
		TraceFilter{Kinds: []MsgKind{KindActivation}, Nodes: []string{"vc"}})
	tr.Trace(TraceEvent{Node: "VC(q)", Kind: KindActivation})   // passes
	tr.Trace(TraceEvent{Node: "VC(q)", Kind: KindDoc})          // wrong kind
	tr.Trace(TraceEvent{Node: "CH(a)", Kind: KindActivation})   // wrong node
	tr.Trace(TraceEvent{Node: "3:VC(q)", Kind: KindActivation}) // substring match
	if len(got) != 2 {
		t.Fatalf("filtered: %+v", got)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	m := NewMetrics()
	m.Events.Add(42)
	m.Depth.Set(3)
	tm := NewTransducerMetrics(`1:CH("x")`)
	tm.Out[KindDetermination].Add(7)
	m.SetTransducers([]*TransducerMetrics{tm})
	m.StepMessages.Observe(5)

	mux := NewServeMux(m)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 32<<10)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String()
	}

	prom := get("/metrics")
	for _, want := range []string{
		"spex_events_total 42",
		"spex_depth 3",
		"spex_step_messages_count 1",
		`spex_transducer_messages_total{transducer="1:CH(\"x\")",dir="out",kind="det"} 7`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, prom)
		}
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/vars")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Events != 42 || snap.Depth != 3 || len(snap.Transducers) != 1 {
		t.Errorf("json snapshot: %+v", snap)
	}

	if !strings.Contains(get("/debug/pprof/cmdline"), "") {
		t.Error("pprof endpoint unreachable")
	}
}

func TestCountingReader(t *testing.T) {
	var c Counter
	r := &CountingReader{R: strings.NewReader("hello world"), C: &c}
	buf := make([]byte, 4)
	total := 0
	for {
		n, err := r.Read(buf)
		total += n
		if err != nil {
			break
		}
	}
	if c.Load() != int64(total) || c.Load() != 11 {
		t.Errorf("counted %d, read %d", c.Load(), total)
	}
}
