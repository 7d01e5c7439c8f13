package multi

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// earlyTermDoc streams n <c/> leaves under one root — n answers of _*.c, so
// a limited query's determining event sits arbitrarily far from the end.
func earlyTermDoc(n int) string {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < n; i++ {
		sb.WriteString("<c/>")
	}
	sb.WriteString("</r>")
	return sb.String()
}

// TestEnginesEarlyDisconnect drives a 50k-element document through a
// counting source three ways: "sequential" is the reference, every query on
// its own network in its own pass; "shared" is the one merged network;
// "parallel" is the sharded wrapper. With every subscription limited to 3
// answers, each must disconnect from the source at the determining event,
// pulling only a tiny prefix of the stream.
func TestEnginesEarlyDisconnect(t *testing.T) {
	const leaves = 50000
	doc := earlyTermDoc(leaves)
	source := func() *xmlstream.CountingSource {
		return &xmlstream.CountingSource{Src: xmlstream.NewScanner(strings.NewReader(doc))}
	}
	// The determining event is within the first handful of leaves; a
	// generous bound still proves the disconnect (the parallel engine
	// over-reads by up to a batch per shard).
	disconnected := func(t *testing.T, src *xmlstream.CountingSource) {
		t.Helper()
		if src.Info.Elements > leaves/10 {
			t.Fatalf("consumed %d of %d elements — engine did not disconnect early",
				src.Info.Elements, leaves)
		}
	}

	t.Run("sequential", func(t *testing.T) {
		for _, sub := range subsLimited(t) {
			src := source()
			stats, err := sub.Plan.Evaluate(src, core.EvalOptions{Mode: spexnet.ModeCount})
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Determined {
				t.Fatalf("%s: limited query did not determine", sub.Name)
			}
			if stats.Output.Matches != 3 {
				t.Fatalf("%s matches = %d, want 3", sub.Name, stats.Output.Matches)
			}
			disconnected(t, src)
		}
	})

	type runner interface {
		Run(src xmlstream.Source) error
		Determined() bool
		Matches() map[string]int64
	}
	sets := []struct {
		name string
		make func() (runner, error)
	}{
		{"shared", func() (runner, error) { return NewMergedSet(subsLimited(t)) }},
		{"parallel", func() (runner, error) {
			return NewParallelSet(subsLimited(t), ParallelOptions{Shards: 2, BatchSize: 64})
		}},
	}
	for _, eng := range sets {
		t.Run(eng.name, func(t *testing.T) {
			set, err := eng.make()
			if err != nil {
				t.Fatal(err)
			}
			src := source()
			if err := set.Run(src); err != nil {
				t.Fatal(err)
			}
			if !set.Determined() {
				t.Fatal("all-limited set did not determine")
			}
			for name, m := range set.Matches() {
				if m != 3 {
					t.Fatalf("%s matches = %d, want 3", name, m)
				}
			}
			disconnected(t, src)
		})
	}
}

func subsLimited(t *testing.T) []Subscription {
	t.Helper()
	return []Subscription{
		{Name: "c3", Plan: plan(t, "_*.c limit 3"), OnHit: func(string, spexnet.Result) {}},
		{Name: "r3", Plan: plan(t, "r.c limit 3"), OnHit: func(string, spexnet.Result) {}},
	}
}

// TestParallelMidBatchDisconnectNoLeak feeds a parallel set event by event so
// determination lands mid-batch, then keeps feeding past it. Run under
// -race, this checks three things: no worker touches a released network, the
// trailing events are absorbed without growing the answer, and Close joins
// every goroutine — nothing stays parked on the broadcast channels.
func TestParallelMidBatchDisconnectNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	var hits int
	subs := []Subscription{
		{Name: "c2", Plan: plan(t, "_*.c limit 2"), OnHit: func(string, spexnet.Result) { hits++ }},
	}
	p, err := NewParallelSet(subs, ParallelOptions{Shards: 4, BatchSize: 8, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	feed := func(ev xmlstream.Event) {
		t.Helper()
		if err := p.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	feed(xmlstream.Event{Kind: xmlstream.StartDocument})
	feed(xmlstream.Start("r"))
	// 500 leaves: the limit-2 determination lands in the first batch while
	// later batches are already queued or still being filled.
	for i := 0; i < 500; i++ {
		feed(xmlstream.Start("c"))
		feed(xmlstream.End("c"))
	}
	feed(xmlstream.End("r"))
	feed(xmlstream.Event{Kind: xmlstream.EndDocument})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
	if !p.Determined() {
		t.Fatal("set did not report Determined")
	}
	if m := p.Matches()["c2"]; m != 2 {
		t.Fatalf("Matches = %d, want 2", m)
	}

	// Close must have joined the workers and the sink; give the runtime a
	// moment to retire exiting goroutines before comparing.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines after Close: %d, baseline %d — worker leak", n, baseline)
	}
}
