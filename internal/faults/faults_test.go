package faults_test

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	spex "repro"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/multi"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// multiPlan prepares one subscription plan.
func multiPlan(expr string) (*core.Plan, error) { return core.Prepare(expr) }

// paperDoc is the running example of the paper's Figure 1.
const paperDoc = `<a><a><c/></a><b/><c/></a>`

// TestTornReadsChangeNothing fragments the input into one-byte reads: the
// evaluation must produce the identical answer, only via more Read calls.
func TestTornReadsChangeNothing(t *testing.T) {
	q := spex.MustCompile("_*.a[b].c")
	want, err := q.Count(strings.NewReader(paperDoc))
	if err != nil {
		t.Fatalf("clean Count: %v", err)
	}
	got, err := q.Count(&faults.Reader{R: strings.NewReader(paperDoc), TornReads: true})
	if err != nil {
		t.Fatalf("torn Count: %v", err)
	}
	if got != want {
		t.Fatalf("torn reads changed the answer: %d, want %d", got, want)
	}
}

// TestByteTruncationIsTyped cuts the stream mid-document with a clean EOF:
// the scanner must diagnose ErrTruncated, never report a short document.
func TestByteTruncationIsTyped(t *testing.T) {
	q := spex.MustCompile("_*.c")
	for _, cut := range []int64{1, 5, 10, int64(len(paperDoc)) - 1} {
		_, err := q.Count(&faults.Reader{R: strings.NewReader(paperDoc), TruncateAt: cut})
		if err == nil {
			t.Fatalf("cut at %d: evaluation succeeded on a truncated document", cut)
		}
		if !errors.Is(err, xmlstream.ErrTruncated) {
			t.Fatalf("cut at %d: error %v does not match xmlstream.ErrTruncated", cut, err)
		}
	}
}

// TestInjectedReadErrorSurfaces fails the read mid-stream: the evaluation's
// error must be exactly the injected one.
func TestInjectedReadErrorSurfaces(t *testing.T) {
	q := spex.MustCompile("_*.c")
	_, err := q.Count(&faults.Reader{R: strings.NewReader(paperDoc), FailAt: 7})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("error %v does not match ErrInjected", err)
	}
	sentinel := errors.New("disk on fire")
	_, err = q.Count(&faults.Reader{R: strings.NewReader(paperDoc), FailAt: 7, Err: sentinel})
	if !errors.Is(err, sentinel) {
		t.Fatalf("error %v does not match the custom sentinel", err)
	}
}

// TestStallDelaysButCompletes inserts a stall: the evaluation must finish
// with the right answer, not hang or error.
func TestStallDelaysButCompletes(t *testing.T) {
	q := spex.MustCompile("_*.c")
	start := time.Now()
	got, err := q.Count(&faults.Reader{
		R: strings.NewReader(paperDoc), StallAt: 4, StallFor: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("stalled Count: %v", err)
	}
	if got != 2 {
		t.Fatalf("stalled Count = %d, want 2", got)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("the stall did not take effect")
	}
}

// TestEventCutDetectedByEveryEngine cuts the event stream mid-document:
// single-query evaluation ("sequential"), the one set network ("shared")
// and its sharded wrapper ("parallel") must each report the imbalance
// instead of answering on the truncated prefix as if it were complete.
func TestEventCutDetectedByEveryEngine(t *testing.T) {
	plan, err := multiPlan("_*.c")
	if err != nil {
		t.Fatal(err)
	}
	sub := []multi.Subscription{{Name: "q", Plan: plan}}
	engines := []struct {
		name string
		run  func(src xmlstream.Source) error
	}{
		{"sequential", func(src xmlstream.Source) error {
			_, err := plan.Evaluate(src, core.EvalOptions{Mode: spexnet.ModeCount})
			return err
		}},
		{"shared", func(src xmlstream.Source) error {
			s, err := multi.NewMergedSet(sub)
			if err != nil {
				return err
			}
			return s.Run(src)
		}},
		{"parallel", func(src xmlstream.Source) error {
			s, err := multi.NewParallelSet(sub, multi.ParallelOptions{Shards: 2})
			if err != nil {
				return err
			}
			return s.Run(src)
		}},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			src := &faults.Source{
				S:        xmlstream.NewScanner(strings.NewReader(paperDoc), xmlstream.WithText(false)),
				CutAfter: 4,
			}
			err := eng.run(src)
			if err == nil {
				t.Fatal("engine accepted an event stream cut mid-document")
			}
			if !strings.Contains(err.Error(), "unclosed") {
				t.Fatalf("cut error %v does not report the imbalance", err)
			}
		})
	}
}

// TestEventFailSurfaces injects an event-level error into a set.
func TestEventFailSurfaces(t *testing.T) {
	plan, err := multiPlan("_*.c")
	if err != nil {
		t.Fatal(err)
	}
	set, err := multi.NewMergedSet([]multi.Subscription{{Name: "q", Plan: plan}})
	if err != nil {
		t.Fatal(err)
	}
	src := &faults.Source{
		S:         xmlstream.NewScanner(strings.NewReader(paperDoc), xmlstream.WithText(false)),
		FailAfter: 3,
	}
	if err := set.Run(src); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("error %v does not match ErrInjected", err)
	}
}

// TestDeepDocTripsDepthLimit drives the lazily generated nesting bomb into
// the scanner: a typed depth error, long before the generator is drained.
func TestDeepDocTripsDepthLimit(t *testing.T) {
	s := xmlstream.NewScanner(faults.DeepDoc(1_000_000), xmlstream.WithLimits(xmlstream.Limits{MaxDepth: 1000}))
	var err error
	for {
		if _, err = s.Next(); err != nil {
			break
		}
	}
	if !errors.Is(err, xmlstream.ErrTooDeep) {
		t.Fatalf("error %v does not match ErrTooDeep", err)
	}
}

// TestWideTokenDocTripsTokenLimit drives the lazily generated oversized tag
// name into the scanner.
func TestWideTokenDocTripsTokenLimit(t *testing.T) {
	s := xmlstream.NewScanner(faults.WideTokenDoc(1<<20), xmlstream.WithLimits(xmlstream.Limits{MaxTokenBytes: 1 << 10}))
	var err error
	for {
		if _, err = s.Next(); err != nil {
			break
		}
	}
	if !errors.Is(err, xmlstream.ErrTokenTooLarge) {
		t.Fatalf("error %v does not match ErrTokenTooLarge", err)
	}
}

// TestGeneratorsProduceWellFormedDocs checks the in-budget shapes of both
// generators evaluate cleanly end to end.
func TestGeneratorsProduceWellFormedDocs(t *testing.T) {
	q := spex.MustCompile("_*.a")
	n, err := q.Count(faults.DeepDoc(100))
	if err != nil {
		t.Fatalf("DeepDoc(100): %v", err)
	}
	if n != 100 {
		t.Fatalf("DeepDoc(100) matched %d a's, want 100", n)
	}
	b, err := io.ReadAll(faults.WideTokenDoc(8))
	if err != nil {
		t.Fatalf("WideTokenDoc(8): %v", err)
	}
	if string(b) != "<aaaaaaaa/>" {
		t.Fatalf("WideTokenDoc(8) = %q", b)
	}
}
