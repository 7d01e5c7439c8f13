package spex

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/multi"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// Feed-boundary invariance: where the input happens to be split — byte
// chunks from the network, event batches pushed into an engine — must never
// change the result. These properties are deterministic (seeded) random
// tests over the boundary space; the fuzzer covers the query/document space.

// chunkedReader yields the document in the pre-computed chunks, one per
// Read call, so token boundaries land wherever the split says — including
// mid-tag and mid-text.
type chunkedReader struct {
	chunks [][]byte
}

func (c *chunkedReader) Read(p []byte) (int, error) {
	for len(c.chunks) > 0 && len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	c.chunks[0] = c.chunks[0][n:]
	return n, nil
}

// splitRandom cuts data into pieces at positions drawn from rng.
func splitRandom(data []byte, rng *rand.Rand) [][]byte {
	var chunks [][]byte
	for len(data) > 0 {
		n := 1 + rng.Intn(len(data))
		chunks = append(chunks, data[:n])
		data = data[n:]
	}
	return chunks
}

const boundaryDoc = `<lib><book year="2002"><title>Streams</title><ref/></book>` +
	`<book><title>Qualifiers</title></book><misc><ref/>tail</misc></lib>`

var boundaryQueries = []string{
	"_*.book[ref].title", "_*.title", "lib.book", "_*[_*.ref]", "_*.misc._",
}

// TestByteBoundaryInvariance splits the serialized document at random byte
// positions: the scanner must reassemble tokens across chunk boundaries, so
// the full results output — not just the counts — is byte-identical.
func TestByteBoundaryInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, expr := range boundaryQueries {
		q := MustCompile(expr)
		var want bytes.Buffer
		if _, err := q.WriteResults(strings.NewReader(boundaryDoc), &want); err != nil {
			t.Fatalf("%s unsplit: %v", expr, err)
		}
		for round := 0; round < 20; round++ {
			var got bytes.Buffer
			r := &chunkedReader{chunks: splitRandom([]byte(boundaryDoc), rng)}
			if _, err := q.WriteResults(r, &got); err != nil {
				t.Fatalf("%s round %d: %v", expr, round, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s round %d: chunked output diverged:\n got %q\nwant %q",
					expr, round, got.Bytes(), want.Bytes())
			}
		}
	}
}

// singleRuns feeds one private push-mode run per query in lockstep — the
// per-query reference of the push API, with no set engine involved.
type singleRuns struct {
	names []string
	runs  []*core.Run
}

func (s singleRuns) Feed(ev xmlstream.Event) error {
	for _, r := range s.runs {
		if err := r.Feed(ev); err != nil {
			return err
		}
	}
	return nil
}

func (s singleRuns) Close() error {
	for _, r := range s.runs {
		if err := r.Close(); err != nil {
			return err
		}
	}
	return nil
}

func (s singleRuns) Matches() map[string]int64 {
	out := make(map[string]int64, len(s.runs))
	for i, r := range s.runs {
		out[s.names[i]] = r.Matches()
	}
	return out
}

// TestEventBoundaryInvariance feeds the event stream in random batches
// through the push API (Feed + Close) to per-query single runs
// ("sequential"), the one set network ("shared") and its sharded wrapper
// ("parallel"): each must report exactly the counts of the single runs fed
// the whole stream at once, regardless of where the batch boundaries fall.
func TestEventBoundaryInvariance(t *testing.T) {
	events, err := xmlstream.Collect(xmlstream.NewScanner(strings.NewReader(boundaryDoc)))
	if err != nil {
		t.Fatal(err)
	}
	type pushEngine interface {
		Feed(ev xmlstream.Event) error
		Close() error
		Matches() map[string]int64
	}
	plans := make([]*core.Plan, len(boundaryQueries))
	for i, expr := range boundaryQueries {
		if plans[i], err = core.Prepare(expr); err != nil {
			t.Fatal(err)
		}
	}
	newSingle := func(t *testing.T) pushEngine {
		t.Helper()
		single := singleRuns{names: boundaryQueries}
		for _, plan := range plans {
			run, err := plan.NewRun(core.EvalOptions{Mode: spexnet.ModeCount})
			if err != nil {
				t.Fatal(err)
			}
			single.runs = append(single.runs, run)
		}
		return single
	}
	newEngines := func(t *testing.T) map[string]pushEngine {
		t.Helper()
		subs := make([]multi.Subscription, len(plans))
		for i, plan := range plans {
			subs[i] = multi.Subscription{Name: boundaryQueries[i], Plan: plan}
		}
		sh, err := multi.NewMergedSet(subs)
		if err != nil {
			t.Fatal(err)
		}
		par, err := multi.NewParallelSet(subs, multi.ParallelOptions{Shards: 2, BatchSize: 3})
		if err != nil {
			t.Fatal(err)
		}
		return map[string]pushEngine{"sequential": newSingle(t), "shared": sh, "parallel": par}
	}

	// Reference counts: the single runs fed the whole stream in one go.
	ref := newSingle(t)
	for _, ev := range events {
		if err := ref.Feed(ev); err != nil {
			t.Fatalf("reference feed: %v", err)
		}
	}
	if err := ref.Close(); err != nil {
		t.Fatalf("reference close: %v", err)
	}
	want := ref.Matches()
	var total int64
	for _, n := range want {
		total += n
	}
	if total == 0 {
		t.Fatal("reference found no answers; workload broken")
	}

	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 10; round++ {
		// Random batch boundaries, shared by all engines this round.
		var batches [][]xmlstream.Event
		rest := events
		for len(rest) > 0 {
			n := 1 + rng.Intn(len(rest))
			batches = append(batches, rest[:n])
			rest = rest[n:]
		}
		for name, eng := range newEngines(t) {
			for _, batch := range batches {
				for _, ev := range batch {
					if err := eng.Feed(ev); err != nil {
						t.Fatalf("%s round %d: %v", name, round, err)
					}
				}
			}
			if err := eng.Close(); err != nil {
				t.Fatalf("%s round %d close: %v", name, round, err)
			}
			got := eng.Matches()
			for q, w := range want {
				if got[q] != w {
					t.Fatalf("%s round %d (%d batches): %q counted %d, want %d",
						name, round, len(batches), q, got[q], w)
				}
			}
		}
	}
}
