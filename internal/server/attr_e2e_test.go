package server_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/server"
)

// ticketsDoc is the motivating attribute document: closed-and-unresolved
// items' summaries are the interesting answers.
const ticketsDoc = `<items>` +
	`<item status="closed"><summary>one</summary></item>` +
	`<item status="open"><summary>two</summary></item>` +
	`<item status="closed" resolution="fixed"><summary>three</summary></item>` +
	`</items>`

// TestAttributeSubscriptions subscribes with @attr queries — rpeq and XPath
// surface, attribute selection included — under every engine name the wire
// accepts, inline and sharded, ingests the attribute-bearing document, and
// cross-validates each subscription's frames against per-query evaluation.
func TestAttributeSubscriptions(t *testing.T) {
	_, c, _ := newTestServer(t, server.Config{})
	ctx := context.Background()

	queries := []string{
		`items.item[@status="closed" and not(@resolution)].summary`,
		`items.item[@status]`,
		`items.item.@status`,
		`//item[@status="closed"]/summary`,
	}
	xpath := []bool{false, false, false, true}
	want := directMatches(t, queries, xpath, ticketsDoc)
	// The shape of the reference: one unresolved-closed summary, three
	// attributed items, three attribute answers, two closed summaries.
	for qi, n := range []int{1, 3, 3, 2} {
		if len(want[qi]) != n {
			t.Fatalf("direct evaluation of %q found %d answers, want %d", queries[qi], len(want[qi]), n)
		}
	}

	for _, engine := range []string{"sequential", "shared", "merged", "parallel:2"} {
		ch := "attr-" + engine
		type subFrames struct {
			id     string
			frames chan server.Frame
		}
		subs := make([]*subFrames, len(queries))
		readerCtx, stopReaders := context.WithCancel(ctx)
		for qi, q := range queries {
			info, err := c.Subscribe(ctx, server.SubscribeRequest{
				Channel: ch, Query: q, XPath: xpath[qi], Engine: engine,
			})
			if err != nil {
				t.Fatalf("%s: subscribe %q: %v", engine, q, err)
			}
			st := &subFrames{id: info.ID, frames: make(chan server.Frame, 64)}
			subs[qi] = st
			go func() {
				_ = c.Results(readerCtx, st.id, func(f server.Frame) error {
					st.frames <- f
					return nil
				})
			}()
		}

		sum, err := c.IngestString(ctx, ch, ticketsDoc)
		if err != nil {
			t.Fatalf("%s: ingest: %v", engine, err)
		}
		var wantTotal int64
		for _, m := range want {
			wantTotal += int64(len(m))
		}
		if sum.Matches != wantTotal {
			t.Errorf("%s: ingest matches = %d, want %d", engine, sum.Matches, wantTotal)
		}

		for qi, st := range subs {
			got := make([]server.Frame, 0, len(want[qi]))
			timeout := time.After(10 * time.Second)
			for len(got) < len(want[qi]) {
				select {
				case f := <-st.frames:
					got = append(got, f)
				case <-timeout:
					t.Fatalf("%s: %q: got %d frames, want %d", engine, queries[qi], len(got), len(want[qi]))
				}
			}
			for i, f := range got {
				if f.Index != want[qi][i].Index || f.Name != want[qi][i].Name {
					t.Errorf("%s: %q frame %d = (%d,%q), want (%d,%q)",
						engine, queries[qi], i, f.Index, f.Name, want[qi][i].Index, want[qi][i].Name)
				}
			}
		}
		stopReaders()
	}
}
