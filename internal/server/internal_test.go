package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseEngine(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"", "merged", true},
		{"merged", "merged", true},
		{"shared", "merged", true},
		{"sequential", "merged", true},
		{"parallel", "parallel", true},
		{"parallel:4", "parallel:4", true},
		{"parallel:0", "", false},
		{"parallel:x", "", false},
		{"shared:2", "", false},
		{"warp", "", false},
	}
	for _, c := range cases {
		e, err := ParseEngine(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseEngine(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && e.String() != c.want {
			t.Errorf("ParseEngine(%q).String() = %q, want %q", c.in, e.String(), c.want)
		}
	}
}

func TestLimitsDefaults(t *testing.T) {
	l := Limits{}.withDefaults()
	if l.MaxChannels != 64 || l.MaxSessions != 64 || l.MaxSubscriptions != 4096 ||
		l.MaxSubscriptionsPerChannel != 256 || l.SubscriptionBuffer != 256 {
		t.Errorf("zero Limits resolved to %+v", l)
	}
	if l.RetryAfter != time.Second {
		t.Errorf("RetryAfter default = %v", l.RetryAfter)
	}
	unlimited := Limits{MaxChannels: -1, MaxInflightBytes: -1}.withDefaults()
	if unlimited.MaxChannels < 1<<20 || unlimited.MaxInflightBytes < 1<<40 {
		t.Errorf("negative limits not unlimited: %+v", unlimited)
	}
}

func TestFrameQueue(t *testing.T) {
	q := newFrameQueue(1)
	ctx := context.Background()
	if err := q.push(ctx, Frame{Seq: 1}); err != nil {
		t.Fatalf("push: %v", err)
	}
	// Full queue: a cancelled context unblocks the push.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := q.push(cctx, Frame{Seq: 2}); err != context.Canceled {
		t.Errorf("push on full queue with cancelled ctx = %v, want context.Canceled", err)
	}
	q.close()
	q.close() // idempotent
	if err := q.push(ctx, Frame{Seq: 3}); err != errQueueClosed {
		t.Errorf("push after close = %v, want errQueueClosed", err)
	}
	// The buffered frame is still drainable after close.
	select {
	case f := <-q.ch:
		if f.Seq != 1 {
			t.Errorf("drained frame %d, want 1", f.Seq)
		}
	default:
		t.Errorf("buffered frame lost on close")
	}
}

// TestRecovererContainsPanics: a panicking handler is answered 500, the
// panic is counted, and the server keeps serving.
func TestRecovererContainsPanics(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	boom := s.recoverer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	rec := httptest.NewRecorder()
	boom.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/channels", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "kaboom") {
		t.Errorf("body %q does not name the panic", rec.Body.String())
	}
	if got := s.metrics.PanicsTotal.Load(); got != 1 {
		t.Errorf("PanicsTotal = %d, want 1", got)
	}
	// The real handler still works after a contained panic.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz after panic = %d, want 200", rec.Code)
	}
}

// TestSessionPanicContainment: a panic inside an evaluation surfaces as that
// session's error; the channel and server survive.
func TestSessionPanicContainment(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ch := &channel{name: "ch", cm: s.metrics.Channel("ch")}
	sess := s.newSession(ch, "trace-test")
	// A subscription with a nil compiled query makes the evaluation panic
	// the moment the set is built — the recover path under test.
	sess.subs = []*subscription{{id: "sub-x", q: nil, queue: newFrameQueue(1)}}
	_, err = sess.run(context.Background(), strings.NewReader("<a/>"))
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("session error = %v, want contained panic", err)
	}
	if got := s.metrics.PanicsTotal.Load(); got != 1 {
		t.Errorf("PanicsTotal = %d, want 1", got)
	}
}

func TestAdmissionCounts(t *testing.T) {
	a := &admission{limits: Limits{MaxSessions: 2, MaxInflightBytes: 10}.withDefaults()}
	if err := a.admitSession(); err != nil {
		t.Fatal(err)
	}
	if err := a.admitSession(); err != nil {
		t.Fatal(err)
	}
	if err := a.admitSession(); err == nil {
		t.Errorf("third session admitted over MaxSessions=2")
	}
	a.releaseSession()
	if err := a.admitSession(); err != nil {
		t.Errorf("session refused after release: %v", err)
	}
	a.releaseSession()
	a.releaseSession()

	a.inflight.Store(10)
	if err := a.admitSession(); err == nil {
		t.Errorf("session admitted with in-flight bytes saturated")
	}
}
