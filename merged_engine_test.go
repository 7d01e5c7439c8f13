package spex

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
)

// engineHit is one answer with its originating query position — the unit
// the cross-validation below compares. A set agrees with the reference on a
// workload iff it produces the same hit sequence per query and the same
// Counts slice.
type engineHit struct {
	query int
	index int64
	name  string
}

// setEngines enumerates every way a Set can run its one engine: inline,
// sharded over two and three workers, and under the deprecated no-op Merged
// option. All are checked against per-query single evaluation.
var setEngines = []struct {
	name string
	opts []SetOption
}{
	{"inline", nil},
	{"parallel:2", []SetOption{Parallel(2)}},
	{"parallel:3", []SetOption{Parallel(3)}},
	{"merged-noop", []SetOption{Merged()}},
}

// runSetEngine evaluates the queries over doc under one engine selection
// and returns the hit sequence and per-query counts.
func runSetEngine(t *testing.T, queries []*Query, doc string, opts ...SetOption) ([]engineHit, []int64) {
	t.Helper()
	var hits []engineHit
	set := NewSet(queries, func(qi int, m Match) {
		hits = append(hits, engineHit{qi, m.Index, m.Name})
	}, opts...)
	if err := set.Evaluate(strings.NewReader(doc)); err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	return hits, set.Counts()
}

// runSingle is the reference: every query evaluated alone on its own
// network, one Query.Matches pass per query, no set engine involved.
func runSingle(t *testing.T, queries []*Query, doc string) ([]engineHit, []int64) {
	t.Helper()
	var hits []engineHit
	counts := make([]int64, len(queries))
	for qi, q := range queries {
		stats, err := q.Matches(strings.NewReader(doc), func(m Match) {
			hits = append(hits, engineHit{qi, m.Index, m.Name})
		})
		if err != nil {
			t.Fatalf("single evaluation of query %d: %v", qi, err)
		}
		counts[qi] = stats.Output.Matches
	}
	return hits, counts
}

// perQuery splits a hit sequence by query position. A set only guarantees
// document order per query — the sharded one may interleave different
// queries' deliveries differently — so the comparison is per-query, not on
// the global sequence.
func perQuery(n int, hits []engineHit) [][]engineHit {
	out := make([][]engineHit, n)
	for _, h := range hits {
		out[h.query] = append(out[h.query], h)
	}
	return out
}

// crossValidate runs the workload under every engine selection and requires
// each to reproduce the per-query single evaluations' answers exactly.
func crossValidate(t *testing.T, queries []*Query, doc string) {
	t.Helper()
	baseHits, baseCounts := runSingle(t, queries, doc)
	base := perQuery(len(queries), baseHits)
	for _, e := range setEngines {
		hits, counts := runSetEngine(t, queries, doc, e.opts...)
		for i := range counts {
			if counts[i] != baseCounts[i] {
				t.Errorf("%s: query %d counts %d, single %d", e.name, i, counts[i], baseCounts[i])
			}
		}
		got := perQuery(len(queries), hits)
		for qi := range base {
			if len(got[qi]) != len(base[qi]) {
				t.Errorf("%s: query %d delivered %d hits, single %d", e.name, qi, len(got[qi]), len(base[qi]))
				continue
			}
			for j := range base[qi] {
				if got[qi][j] != base[qi][j] {
					t.Errorf("%s: query %d hit %d = %+v, single %+v", e.name, qi, j, got[qi][j], base[qi][j])
				}
			}
		}
	}
}

// TestMergedEngineFig1 cross-validates the merged engine on the paper's
// Figure-1 running example with an overlapping subscription mix: an exact
// duplicate (collapses onto one sink), an equivalent rephrasing via a
// nullable qualifier, a containing query, and a statically unsatisfiable
// member (pruned before any transducer is built).
func TestMergedEngineFig1(t *testing.T) {
	queries := []*Query{
		MustCompile("_*.a[b].c"),
		MustCompile("_*.a[b].c"),  // duplicate of 0
		MustCompile("_*.a[b*].c"), // [b*] is nullable: equivalent to _*.a.c
		MustCompile("_*.c"),       // contains the others
		MustCompile("a.b"),
		MustCompile(`c[@x="1" and @x="2"]`), // unsatisfiable: pruned
	}
	crossValidate(t, queries, paperDoc)
}

// TestMergedEngineDMOZ cross-validates on a DMOZ-shaped document with the
// same query heads the sdi_merged benchmark subscribes — shared spines with
// divergent tails, which is where prefix factoring actually shares work.
func TestMergedEngineDMOZ(t *testing.T) {
	var buf bytes.Buffer
	if _, err := bench.Dataset("dmoz-structure", 0.002).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	queries := []*Query{
		MustCompile("_*.Topic"),
		MustCompile("_*.Topic.catid"),
		MustCompile("_*.Topic[catid]"),
		MustCompile("RDF.Topic"),
		MustCompile("_*.Topic"), // duplicate
		MustCompile("_*.Topic[catid*].Title"),
	}
	crossValidate(t, queries, buf.String())
}

// TestMergedEngineAttributes cross-validates attribute tests: value
// agreement, negation, and an attribute-contradiction that the static
// pre-pass prunes.
func TestMergedEngineAttributes(t *testing.T) {
	doc := `<r><a k="1"><c/></a><a k="2"><c/></a><a><c/></a><a k="1" s="v"><c/></a></r>`
	queries := []*Query{
		MustCompile(`_*.a[@k].c`),
		MustCompile(`_*.a[@k="1"].c`),
		MustCompile(`_*.a[not(@k)].c`),
		MustCompile(`_*.a[@k="1"].c`), // duplicate
		MustCompile(`_*.a[@k and not(@s)].c`),
		MustCompile(`_*.a[@k="1" and @k="2"]`), // unsatisfiable
	}
	crossValidate(t, queries, doc)
}

// TestMergedEngineLimits cross-validates answer limits: collapsed
// duplicates with different budgets must each stop at their own limit, and
// an unlimited member sharing the sink must still see every answer.
func TestMergedEngineLimits(t *testing.T) {
	doc := `<r><a><c/></a><a><c/></a><a><c/></a><a><c/></a></r>`
	queries := []*Query{
		MustCompile("_*.c").Limited(1),
		MustCompile("_*.c").Limited(3),
		MustCompile("_*.c"), // unlimited, same canonical form
		MustCompile("_*.a.c").Limited(2),
		MustCompile("r.a[c]"),
	}
	crossValidate(t, queries, doc)
}

// TestSetBuildsOnce: a Set is a standing engine. Its set is compiled and its
// network built at the first evaluation; clean passes over different documents
// go through that one engine — which allocates next to nothing for them, so it
// built nothing — a pass after a failed one gets a network built again from the
// same compiled program, and evaluations of one document report identical
// counts and merge statistics throughout. (That the network behind the engine
// is the same one after a clean pass and another after each kind of unclean
// one is pinned where the field lives: multi's TestMergedSetRewind.)
func TestSetBuildsOnce(t *testing.T) {
	queries := []*Query{
		MustCompile("_*.a[b].c"),
		MustCompile("_*.a[b].c"), // collapses onto 0
		MustCompile("_*.c"),
		MustCompile(`c[@x="1" and @x="2"]`), // pruned
	}
	m := NewMetrics()
	set := NewSet(queries, nil, SetMetrics(m))
	if err := set.Evaluate(strings.NewReader(paperDoc)); err != nil {
		t.Fatal(err)
	}
	eng := set.eng
	if eng == nil {
		t.Fatal("no engine kept after the first evaluation")
	}
	counts := append([]int64(nil), set.Counts()...)
	mergeStats := func() [5]int64 {
		s := m.Snapshot()
		return [5]int64{s.SetcompileNaive, s.SetcompileMerged, s.SetcompilePruned, s.SetcompileCollapsed, s.SetcompileContained}
	}
	stats := mergeStats()
	other := `<a><b/><c/><c/></a>`
	// built evaluates doc and returns the objects the evaluation allocated
	// (AllocsPerRun would hide a build in its warm-up run).
	built := func(doc string) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = set.Evaluate(strings.NewReader(doc))
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for i, doc := range []string{paperDoc, other, paperDoc} {
		if n := built(doc); n > 16 {
			t.Errorf("clean evaluation %d allocated %d objects: it built something", i+2, n)
		}
		if set.eng != eng {
			t.Fatalf("evaluation %d replaced the engine", i+2)
		}
	}
	if got := set.Counts(); !reflect.DeepEqual(got, counts) {
		t.Errorf("counts over the same document: %v, then %v", counts, got)
	}
	// A failed pass: the program survives it, the network does not.
	if err := set.Evaluate(strings.NewReader(`<a><b>`)); err == nil {
		t.Fatal("truncated document evaluated without error")
	}
	if n := built(paperDoc); n <= 16 {
		t.Errorf("the pass after a failed one allocated %d objects: it kept the failed pass's network", n)
	}
	if set.eng != eng {
		t.Error("a failed pass replaced the engine and its compiled program")
	}
	if got := set.Counts(); !reflect.DeepEqual(got, counts) {
		t.Errorf("counts after a failed pass: %v, want %v", got, counts)
	}
	if n := built(paperDoc); n > 16 {
		t.Errorf("the second pass after a failed one allocated %d objects", n)
	}
	if got := mergeStats(); got != stats {
		t.Errorf("merge statistics: %v, then %v", stats, got)
	}
	if stats[2] != 1 || stats[3] != 1 {
		t.Errorf("merge statistics %v: want 1 pruned and 1 collapsed", stats)
	}
}
