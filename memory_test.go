package spex

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/dataset"
)

// The memory gates of serialized answers: what an evaluation holds does not
// depend on how much of the stream has gone by, is a small constant at the
// point the repository benchmark probes it, and a warm evaluation allocates
// its answers and nothing per event. All three read 1.9 MB / growing / 67
// B/event while the scanner chained an arena block per 64 KiB of payload for
// the whole stream and cached every short attribute value.

// liveHeap is the heap in use after two collections (the second empties what
// the first moved to the sync.Pool victim caches) — the benchmark's heapNow.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// probedReader calls probe once for each mark, just before it returns the
// byte at that offset of the stream.
type probedReader struct {
	r     io.Reader
	pos   int
	marks []int
	probe func()
}

func (p *probedReader) Read(b []byte) (int, error) {
	if len(p.marks) > 0 {
		if p.pos >= p.marks[0] {
			p.marks = p.marks[1:]
			p.probe()
		} else if room := p.marks[0] - p.pos; len(b) > room {
			b = b[:room]
		}
	}
	n, err := p.r.Read(b)
	p.pos += n
	return n, err
}

// ticketStream generates n ticket records with distinct ids — one new
// attribute value per record, the input that grew the scanner's value cache
// without bound — and an entity in every summary, without holding the
// document. Two records in three have the <state> the query asks for.
type ticketStream struct {
	n, next int
	buf     []byte
}

func (s *ticketStream) Read(p []byte) (int, error) {
	for len(s.buf) == 0 {
		switch {
		case s.next > s.n:
			return 0, io.EOF
		case s.next == s.n:
			s.buf = append(s.buf, "</items>"...)
		default:
			if s.next == 0 {
				s.buf = append(s.buf, "<items>"...)
			}
			s.buf = fmt.Appendf(s.buf, `<item id="t%d" status="open" priority="p%d"><summary>quota exceeded &amp; volume %d full</summary>`+
				`<body><para>the nightly job stopped at step %d of its run</para><para>restarted by hand</para></body>`,
				s.next, s.next%3+1, s.next%7, s.next%11)
			if s.next%3 != 0 {
				s.buf = append(s.buf, "<state>open</state>"...)
			}
			s.buf = append(s.buf, "</item>"...)
		}
		s.next++
	}
	n := copy(p, s.buf)
	s.buf = s.buf[:copy(s.buf, s.buf[n:])]
	return n, nil
}

// TestResultsHeapFlat: Results over ten times the benchmark's ticket stream
// (85 000 records, about 18 MB) holds the same heap at 10 %, 50 % and 90 % of
// it, within 5 % — memory independent of stream length, the streaming claim.
func TestResultsHeapFlat(t *testing.T) {
	const items, recordBytes = 85000, 210 // a record is 218 bytes on average
	var heap []uint64
	src := &probedReader{
		r:     &ticketStream{n: items},
		marks: []int{items * recordBytes / 10, items * recordBytes / 2, items * recordBytes * 9 / 10},
		probe: func() { heap = append(heap, liveHeap()) },
	}
	answers := 0
	q := MustCompile("_*.item[state].summary")
	if _, err := q.Results(src, func(Result) { answers++ }); err != nil {
		t.Fatal(err)
	}
	if want := items - (items+2)/3; answers != want || len(heap) != 3 {
		t.Fatalf("%d answers and %d probes over %d bytes, want %d and 3", answers, len(heap), src.pos, want)
	}
	lo, hi := min(heap[0], heap[1], heap[2]), max(heap[0], heap[1], heap[2])
	if float64(hi) > 1.05*float64(lo) {
		t.Errorf("live heap at 10/50/90 %% of the stream: %d %d %d bytes, want within 5 %%", heap[0], heap[1], heap[2])
	}
}

// TestResultsMidpointHeap is the deterministic twin of the benchmark's
// live_heap_kb on extract_serialize: the heap an evaluation of
// _*.item[state].summary holds at the middle of the ticket corpus, over what
// was resident before it started. It is the scanner's window, ring and one
// arena block, the network, and the few candidate records a record needs.
func TestResultsMidpointHeap(t *testing.T) {
	doc := dataset.Tickets(4).Bytes() // 8 000 records; the benchmark has 8 500
	q := MustCompile("_*.item[state].summary")
	var mid uint64
	src := &probedReader{r: bytes.NewReader(doc), marks: []int{len(doc) / 2}, probe: func() { mid = liveHeap() }}
	answers := 0
	before := liveHeap()
	if _, err := q.Results(src, func(Result) { answers++ }); err != nil {
		t.Fatal(err)
	}
	if answers != 8000 || mid == 0 {
		t.Fatalf("%d answers, midpoint probe %d; workload broken", answers, mid)
	}
	held := (float64(mid) - float64(before)) / 1024
	t.Logf("%.1f KB held at the midpoint of %d bytes", held, len(doc))
	if held > 256 {
		t.Errorf("%.1f KB held mid-stream over the pre-pass heap, want at most 256", held)
	}
}

// TestResultsSteadyStateAllocs: with the scanner taken from the pool and the
// candidate records — content buffers included — off the network's free list,
// a warm Results pass allocates one string per answer plus what building the
// network costs, and nothing per event: ten times the stream, ten times the
// answers, no other growth.
func TestResultsSteadyStateAllocs(t *testing.T) {
	q := MustCompile("_*.item[state].summary")
	allocsFor := func(items int) (allocs float64, answers int) {
		doc, err := io.ReadAll(&ticketStream{n: items})
		if err != nil {
			t.Fatal(err)
		}
		eval := func() {
			answers = 0
			if _, err := q.Results(bytes.NewReader(doc), func(Result) { answers++ }); err != nil {
				t.Fatal(err)
			}
		}
		eval()
		return testing.AllocsPerRun(5, eval), answers
	}
	small, smallAnswers := allocsFor(300)
	large, largeAnswers := allocsFor(3000)
	if smallAnswers != 200 || largeAnswers != 2000 {
		t.Fatalf("%d and %d answers, want 200 and 2000", smallAnswers, largeAnswers)
	}
	perPass := small - float64(smallAnswers)
	t.Logf("%.0f allocations for %d answers, %.0f for %d: %.0f per pass beside the answers", small, smallAnswers, large, largeAnswers, perPass)
	if extra := large - float64(largeAnswers) - perPass; extra > 8 {
		t.Errorf("a warm pass allocates %.0f times for %d answers and %.0f for %d: %.0f allocations grew with the stream, want none",
			small, smallAnswers, large, largeAnswers, extra)
	}
}
