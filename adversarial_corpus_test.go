package spex

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/multi"
	"repro/internal/spexnet"
)

// The golden adversarial corpus: testdata/adversarial/corpus.txt pins the
// shapes, sizes, queries and answer counts; TestAdversarialGoldenManifest
// guards the pin against drift, and TestAdversarialGoldenCorpus evaluates
// a scaled rendition of every shape alone and through the set engine. The
// full-size counts are validated by the CI adversarial sweep (spexbench
// -fig adversarial -check is self-checking against the same table) —
// running the depth-10k and qualifier-bomb shapes ungoverned inside every
// `go test` would cost minutes, not milliseconds.

// TestAdversarialGoldenManifest checks the checked-in manifest is exactly
// the table dataset.Adversarial() serves to tests, spexgen and spexbench.
func TestAdversarialGoldenManifest(t *testing.T) {
	raw, err := os.ReadFile("testdata/adversarial/corpus.txt")
	if err != nil {
		t.Fatal(err)
	}
	var golden []string
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		golden = append(golden, line)
	}
	table := dataset.Adversarial()
	if len(golden) != len(table) {
		t.Fatalf("manifest has %d cases, table has %d", len(golden), len(table))
	}
	for i, c := range table {
		want := fmt.Sprintf("shape=%s size=%d query=%s want=%d", c.Doc.Name, c.Size, c.Query, c.Want)
		if golden[i] != want {
			t.Errorf("manifest line %d:\n  got  %s\n  want %s", i+1, golden[i], want)
		}
	}
}

// TestAdversarialGoldenCorpus runs every shape, scaled to test size, as a
// single-query evaluation and through the set engine, inline and sharded:
// each must report exactly the corpus's (scaled) pinned count.
func TestAdversarialGoldenCorpus(t *testing.T) {
	scale := 0.02
	if testing.Short() {
		scale = 0.002
	}
	for _, c := range dataset.AdversarialAt(scale) {
		c := c
		t.Run(c.Doc.Name, func(t *testing.T) {
			plan, err := core.Prepare(c.Query)
			if err != nil {
				t.Fatal(err)
			}
			check := func(arm string, got int64, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", arm, err)
				}
				if got != c.Want {
					t.Errorf("%s: %q over %s(%d) counted %d, want %d",
						arm, c.Query, c.Doc.Name, c.Size, got, c.Want)
				}
			}
			stats, err := plan.Evaluate(c.Doc.Stream(), core.EvalOptions{Mode: spexnet.ModeCount})
			check("single", stats.Output.Matches, err)
			sub := []multi.Subscription{{Name: "q", Plan: plan}}
			got, err := countThrough(func() (fuzzSet, error) { return multi.NewMergedSet(sub) }, c.Doc.Stream())
			check("inline", got, err)
			got, err = countThrough(func() (fuzzSet, error) {
				return multi.NewParallelSet(sub, multi.ParallelOptions{Shards: 2})
			}, c.Doc.Stream())
			check("parallel", got, err)
		})
	}
}
