package spex

import (
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// fig1Doc is the running example of the paper (Fig. 1):
// <$> <a> <a> <c> </c> </a> <b> </b> <c> </c> </a> </$>.
const fig1Doc = `<a><a><c/></a><b/><c/></a>`

// matchIndices evaluates q over doc and returns the answers' document-order
// indices.
func matchIndices(t *testing.T, q *Query, doc []byte, opts ...StreamOption) []int64 {
	t.Helper()
	var got []int64
	if _, err := q.Matches(strings.NewReader(string(doc)), func(m Match) {
		got = append(got, m.Index)
	}, opts...); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return got
}

// TestLimitedPrefixCrossValidation is the correctness contract of early
// termination: for every k, a limited evaluation returns exactly the first
// min(k, total) answers of the unlimited evaluation, in the same order — on
// the paper's Fig. 1 document and on the DMOZ structure stand-in, including
// future-condition qualifiers where an answer is only confirmed after the
// selected node has streamed past.
func TestLimitedPrefixCrossValidation(t *testing.T) {
	docs := []struct {
		name    string
		data    []byte
		queries []string
	}{
		{"fig1", []byte(fig1Doc), []string{
			"a._", "_*.c", "_+", "a[b].c", "a[b]._*.c", "_*[c]",
		}},
		{"dmoz", dataset.DMOZStructure(0.0005).Bytes(), []string{
			"_*.Topic.Title",
			"_*.Topic[editor].Title",     // future condition (class 2)
			"_*.Topic[editor].newsGroup", // past condition (class 4)
			"RDF.Topic[newsGroup][editor].link",
		}},
	}
	limits := []int64{1, 2, 3, 7, 100}
	for _, d := range docs {
		for _, expr := range d.queries {
			q := MustCompile(expr)
			full := matchIndices(t, q, d.data)
			for _, k := range limits {
				lim := matchIndices(t, q.Limited(k), d.data)
				want := full
				if int64(len(want)) > k {
					want = want[:k]
				}
				if len(lim) != len(want) {
					t.Fatalf("%s %s limit %d: %d answers, want %d", d.name, expr, k, len(lim), len(want))
				}
				for i := range want {
					if lim[i] != want[i] {
						t.Fatalf("%s %s limit %d: answer %d is node %d, want %d",
							d.name, expr, k, i, lim[i], want[i])
					}
				}
			}
			// WithLimit must behave identically to Limited, and override a
			// textual clause.
			withOpt := matchIndices(t, q, d.data, WithLimit(1))
			if len(full) > 0 && (len(withOpt) != 1 || withOpt[0] != full[0]) {
				t.Fatalf("%s %s WithLimit(1): got %v, want [%d]", d.name, expr, withOpt, full[0])
			}
		}
	}
}

// TestSetLimitedPrefixAllEngines cross-validates limited queries three ways
// — "sequential", every query alone in its own pass; "shared", the set's one
// network; "parallel", that network sharded: each must deliver exactly the
// unlimited prefix per query, and must report whether everything resolved
// early.
func TestSetLimitedPrefixAllEngines(t *testing.T) {
	data := dataset.DMOZStructure(0.0005).Bytes()
	exprs := []string{"_*.Topic.Title", "_*.Topic[editor].Title", "_*.Topic.link"}
	// Unlimited ground truth per query.
	fullCounts := make([]int64, len(exprs))
	for i, e := range exprs {
		c, err := MustCompile(e).Count(strings.NewReader(string(data)))
		if err != nil {
			t.Fatal(err)
		}
		fullCounts[i] = c
	}
	// evaluate returns per-query counts and whether every query's answer
	// was fixed before the end of the stream.
	type evaluate func(t *testing.T, queries []*Query) (counts []int64, determined bool)
	viaSet := func(opts ...SetOption) evaluate {
		return func(t *testing.T, queries []*Query) ([]int64, bool) {
			set := NewSet(queries, nil, opts...)
			if err := set.Evaluate(strings.NewReader(string(data))); err != nil {
				t.Fatal(err)
			}
			return set.Counts(), set.Determined()
		}
	}
	engines := []struct {
		name string
		eval evaluate
	}{
		{"sequential", func(t *testing.T, queries []*Query) ([]int64, bool) {
			counts, determined := make([]int64, len(queries)), true
			for i, q := range queries {
				stats, err := q.Matches(strings.NewReader(string(data)), func(Match) {})
				if err != nil {
					t.Fatal(err)
				}
				counts[i] = stats.Output.Matches
				determined = determined && stats.Determined
			}
			return counts, determined
		}},
		{"shared", viaSet()},
		{"parallel", viaSet(Parallel(2))},
	}
	const k = 5
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			queries := make([]*Query, len(exprs))
			for i, e := range exprs {
				queries[i] = MustCompile(e).Limited(k)
			}
			counts, determined := eng.eval(t, queries)
			for i, c := range counts {
				want := fullCounts[i]
				if want > k {
					want = k
				}
				if c != want {
					t.Fatalf("query %d count = %d, want min(%d, %d)", i, c, k, fullCounts[i])
				}
			}
			if !determined {
				t.Fatal("all-limited set did not report Determined")
			}

			// A mixed set — one unlimited member — must consume the whole
			// stream and must not claim early determination.
			counts, determined = eng.eval(t, []*Query{MustCompile(exprs[0]).Limited(k), MustCompile(exprs[1])})
			if got := counts[1]; got != fullCounts[1] {
				t.Fatalf("unlimited member count = %d, want %d", got, fullCounts[1])
			}
			if determined {
				t.Fatal("mixed set claimed Determined")
			}
		})
	}
}

// poisonReader fails every Read: spliced after a prefix with io.MultiReader,
// any read past the prefix surfaces as errPoisonedTail.
var errPoisonedTail = errors.New("read past the determining event")

type poisonReader struct{}

func (poisonReader) Read([]byte) (int, error) { return 0, errPoisonedTail }

// TestMatchesDocStopsReading pins the SDI contract: once the first answer
// fixes the decision, MatchesDoc must not read another byte. The tail reader
// errors on any Read, so reaching it fails the evaluation loudly.
func TestMatchesDocStopsReading(t *testing.T) {
	q := MustCompile("_*.msg.sport")
	head := `<feed><msg><sport/></msg>` // decision fixed at </sport>
	r := io.MultiReader(strings.NewReader(head), poisonReader{})
	ok, err := q.MatchesDoc(r)
	if err != nil {
		t.Fatalf("MatchesDoc: %v", err)
	}
	if !ok {
		t.Fatal("MatchesDoc = false, want true")
	}

	// Without a match the whole stream must still be read — and the poisoned
	// tail must therefore surface.
	if _, err := q.MatchesDoc(io.MultiReader(strings.NewReader(`<feed><msg/></feed>`), poisonReader{})); !errors.Is(err, errPoisonedTail) {
		t.Fatalf("non-matching MatchesDoc error = %v, want poisoned tail", err)
	}
}

// TestStreamLimitReleasesRun drives the push API: after the limit-th answer
// the run is determined and further pushed events are absorbed without
// changing the answer.
func TestStreamLimitReleasesRun(t *testing.T) {
	var hits []int64
	s, err := MustCompile("_*.c").Stream(func(m Match) { hits = append(hits, m.Index) }, WithLimit(2))
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.StartElement("r"))
	for i := 0; i < 5; i++ {
		must(s.StartElement("c"))
		must(s.EndElement("c"))
	}
	must(s.EndElement("r"))
	must(s.Close())
	if len(hits) != 2 {
		t.Fatalf("hits = %v, want exactly 2", hits)
	}
	if s.Matches() != 2 {
		t.Fatalf("Matches = %d, want 2", s.Matches())
	}
	if !s.Stats().Determined {
		t.Fatal("stream run did not report Determined")
	}
}

// govHeadroomDoc opens with one immediately-decidable answer — a <b/> child
// of the root fixes the root's [b] condition — and then descends into the
// candidate-explosion chain of govChainDoc, where every open <a> is an
// undecided candidate until its subtree closes.
func govHeadroomDoc(n int) string {
	return "<r><b/>" + govChainDoc(n) + "</r>"
}

// TestGovernorHeadroomOnEarlyRelease shows the resource story of early
// termination: the same document under the same candidate cap trips
// PolicyFail when evaluated exhaustively, but sails through under limit 1,
// because the run is released at the determining event — before the
// pathological region is ever buffered.
func TestGovernorHeadroomOnEarlyRelease(t *testing.T) {
	q := MustCompile("_+[b]")
	doc := govHeadroomDoc(32)
	limits := ResourceLimits{MaxCandidates: 5}

	_, err := q.Count(strings.NewReader(doc), WithResourceLimits(limits, PolicyFail))
	if !errors.Is(err, ErrResourceLimit) {
		t.Fatalf("unlimited governed Count error = %v, want ErrResourceLimit", err)
	}

	got, err := q.Limited(1).Count(strings.NewReader(doc), WithResourceLimits(limits, PolicyFail))
	if err != nil {
		t.Fatalf("limited governed Count: %v", err)
	}
	if got != 1 {
		t.Fatalf("limited governed Count = %d, want 1", got)
	}
}
