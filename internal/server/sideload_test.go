package server_test

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/server/client"
)

// TestSideload exercises the mmap ingest path end to end: a document in the
// server's side-load directory is evaluated in place, three times over, and
// must produce exactly the answers a wire ingest of the same bytes produces,
// with the frames intact.
func TestSideload(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fig1.xml"), []byte(fig1Doc), 0o644); err != nil {
		t.Fatal(err)
	}
	_, c, ts := newTestServer(t, server.Config{SideloadDir: dir})
	ctx := context.Background()

	sub, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: "sl", Query: `_*.a[b].c`})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	want := directMatches(t, []string{`_*.a[b].c`}, nil, fig1Doc)[0]

	frames := make(chan server.Frame, 64)
	readerCtx, stopReader := context.WithCancel(ctx)
	defer stopReader()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = c.Results(readerCtx, sub.ID, func(f server.Frame) error {
			frames <- f
			return nil
		})
	}()

	for run := 0; run < 3; run++ {
		sum, err := c.Sideload(ctx, "sl", "fig1.xml")
		if err != nil {
			t.Fatalf("sideload %d: %v", run, err)
		}
		if sum.Matches != int64(len(want)) {
			t.Errorf("sideload %d: matches = %d, want %d", run, sum.Matches, len(want))
		}
		if sum.Bytes != int64(len(fig1Doc)) {
			t.Errorf("sideload %d: bytes = %d, want %d", run, sum.Bytes, len(fig1Doc))
		}
		for _, m := range want {
			f := <-frames
			if f.Index != m.Index || f.Name != m.Name {
				t.Errorf("sideload %d: frame (%d, %q), want (%d, %q)", run, f.Index, f.Name, m.Index, m.Name)
			}
		}
	}

	body := httpGet(t, ts, "/metrics")
	if !strings.Contains(body, "spex_server_sideloads_total 3") {
		t.Errorf("/metrics missing spex_server_sideloads_total 3")
	}
	// The ingest gauges reflect the last completed scan.
	if !strings.Contains(body, "spex_ingest_buffer_bytes ") {
		t.Errorf("/metrics missing spex_ingest_buffer_bytes")
	}
}

// TestSideloadRejections covers the failure doors: the route is absent
// without a configured directory, paths may not escape it, and missing
// files are a clean 404.
func TestSideloadRejections(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "doc.xml"), []byte(fig1Doc), 0o644); err != nil {
		t.Fatal(err)
	}
	_, c, _ := newTestServer(t, server.Config{SideloadDir: dir})
	ctx := context.Background()
	if _, err := c.Subscribe(ctx, server.SubscribeRequest{Channel: "sl", Query: `a`}); err != nil {
		t.Fatalf("subscribe: %v", err)
	}

	cases := []struct {
		name, file string
		status     int
	}{
		{"escape", "../doc.xml", http.StatusBadRequest},
		{"sneaky escape", "sub/../../doc.xml", http.StatusBadRequest},
		{"absolute", filepath.Join(dir, "doc.xml"), http.StatusBadRequest},
		{"empty", "", http.StatusBadRequest},
		{"missing", "nope.xml", http.StatusNotFound},
		{"too large", "doc.xml", http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := c
			if tc.name == "too large" {
				_, small, _ := newTestServer(t, server.Config{
					SideloadDir: dir,
					Limits:      server.Limits{MaxDocumentBytes: 4},
				})
				if _, err := small.Subscribe(ctx, server.SubscribeRequest{Channel: "sl", Query: `a`}); err != nil {
					t.Fatalf("subscribe: %v", err)
				}
				srv = small
			}
			_, err := srv.Sideload(ctx, "sl", tc.file)
			apiErr, ok := err.(*client.APIError)
			if !ok || apiErr.Status != tc.status {
				t.Fatalf("sideload %q: err = %v, want status %d", tc.file, err, tc.status)
			}
		})
	}

	// No side-load directory configured: the route answers 404.
	_, bare, _ := newTestServer(t, server.Config{})
	if _, err := bare.Subscribe(ctx, server.SubscribeRequest{Channel: "sl", Query: `a`}); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	_, err := bare.Sideload(ctx, "sl", "doc.xml")
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Status != http.StatusNotFound {
		t.Fatalf("sideload without directory: err = %v, want 404", err)
	}
}
