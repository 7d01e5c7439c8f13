package multi

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// fig1Doc is the running example of the paper (Fig. 1).
const fig1Doc = `<a><a><c>first</c></a><b/><c>second</c></a>`

// querySubs names the queries q0, q1, … as subscriptions without callbacks.
func querySubs(t *testing.T, queries []string) []Subscription {
	t.Helper()
	subs := make([]Subscription, len(queries))
	for i, expr := range queries {
		subs[i] = Subscription{Name: fmt.Sprintf("q%d", i), Plan: plan(t, expr)}
	}
	return subs
}

// collectSingle is the reference: each query alone on its own network.
func collectSingle(t *testing.T, queries []string, doc func() xmlstream.Source) map[string][]int64 {
	t.Helper()
	return singleHits(t, querySubs(t, queries), doc)
}

// collectInline evaluates the queries through one MergedSet.
func collectInline(t *testing.T, queries []string, doc func() xmlstream.Source) map[string][]int64 {
	t.Helper()
	subs := querySubs(t, queries)
	hits := recordHits(subs)
	set, err := NewMergedSet(subs)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Run(doc()); err != nil {
		t.Fatal(err)
	}
	return hits
}

// collectParallel evaluates the same queries through a ParallelSet.
func collectParallel(t *testing.T, queries []string, doc func() xmlstream.Source, opts ParallelOptions) map[string][]int64 {
	t.Helper()
	subs := querySubs(t, queries)
	hits := recordHits(subs)
	p, err := NewParallelSet(subs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(doc()); err != nil {
		t.Fatal(err)
	}
	return hits
}

// TestParallelSetAgreesWithSequential cross-validates the inline set and the
// sharded set against per-query single evaluation on the paper's Fig. 1
// document, sweeping shard count, batch size and a shuffled shard
// assignment: neither merging nor the partition may change a single answer.
func TestParallelSetAgreesWithSequential(t *testing.T) {
	queries := []string{
		"a.a.c", "a.c", "_*.c", "a[b].c", "a.a[c].c", "_*[c]", "a.b", "a.a.c",
	}
	doc := func() xmlstream.Source { return xmlstream.NewScanner(strings.NewReader(fig1Doc)) }
	want := collectSingle(t, queries, doc)
	if len(want) == 0 {
		t.Fatal("reference produced no hits at all")
	}
	sameHits(t, "inline", want, collectInline(t, queries, doc))
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(len(queries))
	for _, shards := range []int{1, 2, 3, 4} {
		for _, batch := range []int{1, 2, 3, 256} {
			label := fmt.Sprintf("shards=%d batch=%d", shards, batch)
			got := collectParallel(t, queries, doc, ParallelOptions{
				Shards:    shards,
				BatchSize: batch,
				Assign:    func(i, n int) int { return perm[i] % n },
			})
			sameHits(t, label, want, got)
		}
	}
}

// TestParallelSetDMOZCrossValidation repeats the cross-validation on a
// DMOZ-shaped document large enough to span many batches, with the
// SDI-style common-prefix workload whose qualifier sub-network every
// subscriber shares.
func TestParallelSetDMOZCrossValidation(t *testing.T) {
	queries := []string{
		"_*.Topic[editor].Title",
		"_*.Topic.newsGroup",
		"_*.Topic[newsGroup].link",
		"_*.Topic.Title",
		"_*.Topic[editor]",
		"_*.Topic.catid",
		"_*.Topic[editor].newsGroup",
	}
	doc := func() xmlstream.Source { return dataset.DMOZStructure(0.002).Stream() }
	want := collectSingle(t, queries, doc)
	if len(want["q0"]) == 0 || len(want["q3"]) == 0 {
		t.Fatalf("suspicious empty reference: %d and %d answers", len(want["q0"]), len(want["q3"]))
	}
	sameHits(t, "inline", want, collectInline(t, queries, doc))
	rng := rand.New(rand.NewSource(41))
	perm := rng.Perm(len(queries))
	for _, shards := range []int{1, 3, 4} {
		label := fmt.Sprintf("shards=%d", shards)
		got := collectParallel(t, queries, doc, ParallelOptions{
			Shards:    shards,
			BatchSize: 64,
			Assign:    func(i, n int) int { return perm[i] % n },
		})
		sameHits(t, label, want, got)
	}
}

// TestParallelSetMatches checks the merged per-subscription counts.
func TestParallelSetMatches(t *testing.T) {
	subs := []Subscription{
		{Name: "sport", Plan: plan(t, "feed.msg[sport]")},
		{Name: "politics", Plan: plan(t, "feed.msg[politics]")},
		{Name: "titled", Plan: plan(t, "_*.msg[title]")},
	}
	doc := `<feed><msg><sport/><title>x</title></msg><msg><politics/><title>y</title></msg><msg><sport/></msg></feed>`
	p, err := NewParallelSet(subs, ParallelOptions{Shards: 2, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(xmlstream.NewScanner(strings.NewReader(doc))); err != nil {
		t.Fatal(err)
	}
	counts := p.Matches()
	if counts["sport"] != 2 || counts["politics"] != 1 || counts["titled"] != 2 {
		t.Fatalf("Matches: %v", counts)
	}
}

// TestParallelSetHitOrdering: answers of one subscription must arrive in
// document order even when other shards race ahead or fall behind.
func TestParallelSetHitOrdering(t *testing.T) {
	var docSB strings.Builder
	docSB.WriteString("<feed>")
	for i := 0; i < 500; i++ {
		docSB.WriteString("<msg><sport/><title>t</title></msg>")
	}
	docSB.WriteString("</feed>")
	orders := make([][]int64, 4)
	var subs []Subscription
	for i := 0; i < 4; i++ {
		i := i
		subs = append(subs, Subscription{
			Name: fmt.Sprintf("q%d", i),
			Plan: plan(t, "feed.msg[sport]"),
			OnHit: func(_ string, r spexnet.Result) {
				orders[i] = append(orders[i], r.Index)
			},
		})
	}
	p, err := NewParallelSet(subs, ParallelOptions{Shards: 4, BatchSize: 8, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(xmlstream.NewScanner(strings.NewReader(docSB.String()))); err != nil {
		t.Fatal(err)
	}
	for i, ord := range orders {
		if len(ord) != 500 {
			t.Fatalf("q%d: %d hits, want 500", i, len(ord))
		}
		for j := 1; j < len(ord); j++ {
			if ord[j] <= ord[j-1] {
				t.Fatalf("q%d: out of document order at %d: %d after %d", i, j, ord[j], ord[j-1])
			}
		}
	}
}

// TestParallelSetSnapshotDuringRun polls the metrics snapshot from the test
// goroutine while the feeder and the shards are mid-batch; under -race this
// proves the instruments' single-writer discipline holds across the pool.
func TestParallelSetSnapshotDuringRun(t *testing.T) {
	var docSB strings.Builder
	docSB.WriteString("<feed>")
	for i := 0; i < 2000; i++ {
		docSB.WriteString("<msg><sport/><title>t</title></msg>")
	}
	docSB.WriteString("</feed>")
	var subs []Subscription
	for i := 0; i < 8; i++ {
		subs = append(subs, Subscription{Name: fmt.Sprintf("q%d", i), Plan: plan(t, "feed.msg[sport].title")})
	}
	m := obs.NewMetrics()
	p, err := NewParallelSet(subs, ParallelOptions{Shards: 4, BatchSize: 16, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	done := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(done)
		if err := p.Run(xmlstream.NewScanner(strings.NewReader(docSB.String()))); err != nil {
			t.Error(err)
		}
	}()
	polls := 0
	for {
		select {
		case <-done:
		default:
		}
		s := p.Snapshot()
		if !s.Enabled {
			t.Fatal("snapshot disabled despite registry")
		}
		if len(s.Shards) != 4 {
			t.Fatalf("snapshot shards: %d", len(s.Shards))
		}
		for _, sh := range s.Shards {
			if sh.Events < 0 || sh.Batches < 0 || sh.Queue < 0 || sh.Queue > sh.MaxQueue {
				t.Fatalf("implausible shard snapshot: %+v", sh)
			}
		}
		polls++
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	wg.Wait()
	if polls == 0 {
		t.Fatal("never polled")
	}
	// Final state: every shard saw the whole stream.
	s := p.Snapshot()
	var hits int64
	for _, sh := range s.Shards {
		if sh.Events != s.Events {
			t.Errorf("shard %s saw %d events, stream had %d", sh.Name, sh.Events, s.Events)
		}
		hits += sh.Hits
	}
	if hits != 2000*8 {
		t.Errorf("shard hits: %d, want %d", hits, 2000*8)
	}
	if s.Matches != 2000*8 {
		t.Errorf("sink matches: %d, want %d", s.Matches, 2000*8)
	}
}

// TestParallelSetError: a malformed stream (unbalanced end message) must
// surface as an error from Run, not a hang or a panic.
func TestParallelSetError(t *testing.T) {
	subs := []Subscription{{Name: "q", Plan: plan(t, "a.b")}}
	p, err := NewParallelSet(subs, ParallelOptions{Shards: 1, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	feed := func(ev xmlstream.Event) error { return p.Feed(ev) }
	if err := feed(xmlstream.Event{Kind: xmlstream.StartDocument}); err != nil {
		t.Fatal(err)
	}
	if err := feed(xmlstream.Start("a")); err != nil {
		t.Fatal(err)
	}
	_ = feed(xmlstream.End("a"))
	_ = feed(xmlstream.End("a")) // unbalanced: depth < 0 inside the shard
	err = p.Close()
	if err == nil {
		t.Fatal("unbalanced stream: want error, got nil")
	}
	if !strings.Contains(err.Error(), "unbalanced") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestParallelSetBackpressure: with a queue depth of one batch and a batch
// of one event the feeder blocks constantly; correctness must not depend on
// the queue having slack.
func TestParallelSetBackpressure(t *testing.T) {
	queries := []string{"feed.msg[sport]", "feed.msg[politics]", "_*.title"}
	doc := `<feed><msg><sport/><title>x</title></msg><msg><politics/><title>y</title></msg></feed>`
	src := func() xmlstream.Source { return xmlstream.NewScanner(strings.NewReader(doc)) }
	want := collectSingle(t, queries, src)
	got := collectParallel(t, queries, src, ParallelOptions{Shards: 3, BatchSize: 1, QueueDepth: 1})
	sameHits(t, "tiny-queue", want, got)
}
