package spex

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// govChainDoc nests n <a> elements, each receiving its <b/> child as its
// LAST child — every open a stays an undecided candidate of _+[b] until its
// subtree closes, so the candidate population reaches n mid-stream.
func govChainDoc(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString("<a>")
	}
	for i := 0; i < n; i++ {
		sb.WriteString("<b/></a>")
	}
	return sb.String()
}

func TestWithResourceLimitsFail(t *testing.T) {
	q := MustCompile("_+[b]")
	_, err := q.Count(strings.NewReader(govChainDoc(32)),
		WithResourceLimits(ResourceLimits{MaxCandidates: 5}, PolicyFail))
	if err == nil {
		t.Fatal("governed Count: no error, want candidate limit trip")
	}
	if !errors.Is(err, ErrResourceLimit) {
		t.Fatalf("error %v does not match ErrResourceLimit", err)
	}
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("error %v is not a *LimitError", err)
	}
	if got := le.Resource.String(); got != "candidates" {
		t.Fatalf("LimitError.Resource = %q, want %q", got, "candidates")
	}
}

func TestWithResourceLimitsDegradeKeepsCounts(t *testing.T) {
	q := MustCompile("_+[b]")
	want, err := q.Count(strings.NewReader(govChainDoc(24)))
	if err != nil {
		t.Fatalf("ungoverned Count: %v", err)
	}
	got, err := q.Count(strings.NewReader(govChainDoc(24)),
		WithResourceLimits(ResourceLimits{MaxCandidates: 3}, PolicyDegrade))
	if err != nil {
		t.Fatalf("degraded Count: %v", err)
	}
	if got != want {
		t.Fatalf("degraded Count = %d, want the ungoverned %d", got, want)
	}
}

// TestSetGovernedAllEngines: the same candidate cap trips with the same
// typed error whether the query runs alone ("sequential"), in the set's one
// network ("shared") or in a shard of it ("parallel").
func TestSetGovernedAllEngines(t *testing.T) {
	q := MustCompile("_+[b]")
	limits := ResourceLimits{MaxCandidates: 4}
	viaSet := func(opts ...SetOption) func(r io.Reader) error {
		return NewSet([]*Query{q}, nil, append(opts, Governed(limits, PolicyFail))...).Evaluate
	}
	engines := []struct {
		name string
		eval func(r io.Reader) error
	}{
		{"sequential", func(r io.Reader) error {
			_, err := q.Count(r, WithResourceLimits(limits, PolicyFail))
			return err
		}},
		{"shared", viaSet()},
		{"parallel", viaSet(Parallel(2))},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			err := eng.eval(strings.NewReader(govChainDoc(32)))
			if err == nil {
				t.Fatal("governed Evaluate: no error, want candidate limit trip")
			}
			if !errors.Is(err, ErrResourceLimit) {
				t.Fatalf("error %v does not match ErrResourceLimit", err)
			}
		})
	}
}

func TestSetGovernedShedDropsOnlyTrippingQuery(t *testing.T) {
	m := NewMetrics()
	set := NewSet([]*Query{MustCompile("_+[b]"), MustCompile("a")}, nil,
		Governed(ResourceLimits{MaxCandidates: 4}, PolicyShed),
		SetMetrics(m))
	if err := set.Evaluate(strings.NewReader(govChainDoc(32))); err != nil {
		t.Fatalf("shed-policy Evaluate: %v", err)
	}
	counts := set.Counts()
	if counts[1] != 1 {
		t.Fatalf("unaffected query counted %d answers, want 1", counts[1])
	}
	snap := m.Snapshot()
	if snap.GovernorSheds == 0 {
		t.Fatal("SetMetrics registry recorded no governor sheds")
	}
}
