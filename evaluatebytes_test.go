package spex

import (
	"strings"
	"testing"
)

// TestEvaluateBytesParallelScan cross-validates the in-memory evaluation
// paths against the reader path: EvaluateBytes (the zero-copy scan) and
// EvaluateBytes under the ParallelScan option (chunk scanning) must deliver
// exactly the hits Evaluate delivers from a reader, in the same order.
func TestEvaluateBytesParallelScan(t *testing.T) {
	// Large enough to clear the parallel scanner's splitting threshold, with
	// text and attributes in play.
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 20000; i++ {
		sb.WriteString(`<a k="v"><b/>text</a><c><d/></c>`)
	}
	sb.WriteString("</r>")
	doc := sb.String()
	exprs := []string{"_*.a[b]", "r.c.d", "_*.b"}

	type hit struct {
		q   int
		idx int64
	}
	run := func(opts []SetOption, inMemory bool) []hit {
		t.Helper()
		queries := make([]*Query, len(exprs))
		for i, e := range exprs {
			queries[i] = MustCompile(e)
		}
		var hits []hit
		set := NewSet(queries, func(q int, m Match) { hits = append(hits, hit{q, m.Index}) }, opts...)
		var err error
		if inMemory {
			err = set.EvaluateBytes([]byte(doc))
		} else {
			err = set.Evaluate(strings.NewReader(doc))
		}
		if err != nil {
			t.Fatal(err)
		}
		return hits
	}
	same := func(label string, want, got []hit) {
		t.Helper()
		if len(want) != len(got) {
			t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: hit %d = %+v, want %+v", label, i, got[i], want[i])
			}
		}
	}

	want := run(nil, false)
	if len(want) == 0 {
		t.Fatal("workload broken, no hits")
	}
	same("bytes", want, run(nil, true))
	for _, workers := range []int{0, 3} {
		same("pscan", want, run([]SetOption{ParallelScan(workers)}, true))
	}
}

// TestParallelScanEarlyStop pins the worker-release contract: a set whose
// queries all hit their answer limits abandons the stitched stream before
// EOF, and the chunk workers must be let go rather than left blocked on
// their batch channels (the race-mode CI job watches this handoff).
func TestParallelScanEarlyStop(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 40000; i++ {
		sb.WriteString("<a><b/></a>")
	}
	sb.WriteString("</r>")

	var n int
	set := NewSet([]*Query{MustCompile("_*.b").Limited(1)},
		func(int, Match) { n++ }, ParallelScan(4))
	if err := set.EvaluateBytes([]byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("limited hits = %d, want 1", n)
	}
}
