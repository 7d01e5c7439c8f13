package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

func TestParseEngineMerged(t *testing.T) {
	e, err := server.ParseEngine("merged")
	if err != nil {
		t.Fatalf("ParseEngine(merged): %v", err)
	}
	if e != (server.Engine{}) {
		t.Fatalf("ParseEngine(merged) = %+v, want the inline zero value", e)
	}
	if got := e.String(); got != "merged" {
		t.Fatalf("String() = %q, want %q", got, "merged")
	}
	if _, err := server.ParseEngine("merged:2"); err == nil {
		t.Fatal("ParseEngine(merged:2): want shard-count error")
	}
}

// TestMergedEngineEndToEnd registers an overlapping corpus — duplicates, an
// equivalent-after-canonicalization pair, a contained pair and a statically
// unsatisfiable query — on a channel, ingests a document, and checks frames
// against per-query evaluation plus the /debug/spex merged block.
func TestMergedEngineEndToEnd(t *testing.T) {
	_, c, ts := newTestServer(t, server.Config{})
	ctx := context.Background()

	queries := []string{
		`_*.a[b].c`,
		`_*.a[b].c`,  // exact duplicate
		`_*.a[b*].c`, // ≡ _*.a.c (nullable qualifier)
		`_*.c`,       // contains _*.a.c
		`a.b`,
		`c[@x="1" and @x="2"]`, // statically unsatisfiable
	}
	want := directMatches(t, queries, nil, fig1Doc)

	ids := make([]string, len(queries))
	for i, q := range queries {
		info, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: "m", Query: q, Engine: "merged"})
		if err != nil {
			t.Fatalf("subscribe %q: %v", q, err)
		}
		if info.Engine != "merged" {
			t.Fatalf("engine = %q, want merged", info.Engine)
		}
		ids[i] = info.ID
	}

	// A second subscription asking for a sharded channel must conflict.
	if _, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: "m", Query: "a", Engine: "parallel"}); err == nil {
		t.Fatal("engine mismatch on existing channel: want conflict error")
	}

	frames := make(map[string][]server.Frame)
	var mu sync.Mutex
	readerCtx, stopReaders := context.WithCancel(ctx)
	defer stopReaders()
	var readers sync.WaitGroup
	for _, id := range ids {
		readers.Add(1)
		go func() {
			defer readers.Done()
			_ = c.Results(readerCtx, id, func(f server.Frame) error {
				mu.Lock()
				frames[f.Sub] = append(frames[f.Sub], f)
				mu.Unlock()
				return nil
			})
		}()
	}

	sum, err := c.IngestString(ctx, "m", fig1Doc)
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	var wantTotal int64
	for _, w := range want {
		wantTotal += int64(len(w))
	}
	if sum.Matches != wantTotal {
		t.Fatalf("ingest matches = %d, want %d", sum.Matches, wantTotal)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		total := 0
		for _, fs := range frames {
			total += len(fs)
		}
		mu.Unlock()
		if int64(total) == wantTotal {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("frames: got %d, want %d", total, wantTotal)
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	for i, id := range ids {
		fs := frames[id]
		if len(fs) != len(want[i]) {
			t.Fatalf("%q: %d frames, want %d", queries[i], len(fs), len(want[i]))
		}
		for j, f := range fs {
			if f.Index != want[i][j].Index || f.Name != want[i][j].Name {
				t.Fatalf("%q frame %d: (%d,%q), want (%d,%q)",
					queries[i], j, f.Index, f.Name, want[i][j].Index, want[i][j].Name)
			}
		}
	}
	mu.Unlock()

	// The merged block on /debug/spex reflects the standing corpus.
	resp, err := http.Get(ts.URL + "/debug/spex")
	if err != nil {
		t.Fatalf("debug: %v", err)
	}
	var info server.DebugInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("debug decode: %v", err)
	}
	resp.Body.Close()
	if len(info.Channels) != 1 || info.Channels[0].Merged == nil {
		t.Fatalf("debug channels: %+v", info.Channels)
	}
	dm := info.Channels[0].Merged
	if dm.Queries != len(queries) {
		t.Fatalf("merged queries = %d, want %d", dm.Queries, len(queries))
	}
	if dm.Pruned != 1 || len(dm.PrunedQueries) != 1 || dm.PrunedQueries[0] != ids[5] {
		t.Fatalf("pruned: %+v", dm)
	}
	// The exact duplicate collapses onto the original's sink.
	if dm.Collapsed != 1 {
		t.Fatalf("collapsed = %d, want 1", dm.Collapsed)
	}
	if dm.MergedTransducers >= dm.NaiveTransducers {
		t.Fatalf("no sharing: naive %d, merged %d", dm.NaiveTransducers, dm.MergedTransducers)
	}
	// _*.a[b*].c ≡ _*.a.c is contained in _*.c: at least one containment.
	if len(dm.Containments) == 0 {
		t.Fatalf("containments: %+v", dm)
	}

	// Retiring a subscription shrinks the merged plan.
	if err := c.Unsubscribe(ctx, ids[0]); err != nil {
		t.Fatalf("unsubscribe: %v", err)
	}
	resp, err = http.Get(ts.URL + "/debug/spex")
	if err != nil {
		t.Fatalf("debug: %v", err)
	}
	var after server.DebugInfo
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatalf("debug decode: %v", err)
	}
	resp.Body.Close()
	if got := after.Channels[0].Merged.Queries; got != len(queries)-1 {
		t.Fatalf("merged queries after retire = %d, want %d", got, len(queries)-1)
	}

	stopReaders()
	readers.Wait()
}

// TestMergedSubscribeRetireMidStream exercises the incremental compiler
// under -race: ingests stream continuously on a channel while
// subscriptions are added and retired concurrently. Every session snapshots
// the channel at its start, so each pass must still deliver a consistent
// frame set for the subscriptions it saw.
func TestMergedSubscribeRetireMidStream(t *testing.T) {
	_, c, _ := newTestServer(t, server.Config{})
	ctx := context.Background()

	// A standing anchor subscription keeps the channel alive throughout.
	anchor, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: "m", Query: "_*.c", Engine: "merged"})
	if err != nil {
		t.Fatalf("anchor subscribe: %v", err)
	}

	doc := fig1Doc
	stop := make(chan struct{})
	var ingester, churners sync.WaitGroup

	// Ingest loop: streams documents until the churn is done.
	ingester.Add(1)
	go func() {
		defer ingester.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.IngestString(ctx, "m", doc); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
		}
	}()

	// Churn loops: subscribe an overlapping query, then retire it.
	churn := []string{`_*.a[b].c`, `_*.c`, `a.b`, `_*.a[b*].c`}
	for _, q := range churn {
		churners.Add(1)
		go func() {
			defer churners.Done()
			for i := 0; i < 25; i++ {
				info, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: "m", Query: q})
				if err != nil {
					t.Errorf("subscribe %q: %v", q, err)
					return
				}
				if err := c.Unsubscribe(ctx, info.ID); err != nil {
					t.Errorf("unsubscribe %q: %v", q, err)
					return
				}
			}
		}()
	}

	churners.Wait()
	close(stop)
	ingester.Wait()

	// The anchor survived the churn and the channel still evaluates.
	sum, err := c.IngestString(ctx, "m", doc)
	if err != nil {
		t.Fatalf("final ingest: %v", err)
	}
	if sum.Matches == 0 {
		t.Fatal("final ingest matched nothing")
	}
	if _, err := c.Subscription(ctx, anchor.ID); err != nil {
		t.Fatalf("anchor info: %v", err)
	}
}
