package xmlstream

import "unsafe"

// Arena allocation for the ingest hot path. Most event payload is served as
// a view of the read window; what cannot be — entity-decoded text and
// values, CDATA content, a text run larger than the window, and every
// Event.Attrs list — is carved from the scanner's two arenas instead of the
// heap.
//
// An arena is one chain of fixed-size blocks with a cursor: blocks before the
// cursor are full, the block at it is being filled. How long a carving lives
// is the scanner's event-lifetime rule (DESIGN.md §15):
//
//   - reading from an io.Reader, the scanner rewinds both arenas every time
//     its pending ring drains, so a carving is good until the next call of
//     Next and the arenas never hold more than one ring of payload;
//   - over caller-owned bytes the arenas are rewound only by Reset. The chain
//     then grows with the document up to arenaChainBlocks blocks, which the
//     next document reuses; past that the last block is replaced rather than
//     chained, and a replaced block lives exactly as long as the events that
//     were carved from it — never rewritten, reclaimed by the collector.
//
// Blocks are allocated on first use: a scan that carves nothing (text and
// attributes off) owns no arena memory at all. They are small because the
// reader path never needs more than one ring of carvings and holds a block of
// each arena for as long as it runs; over caller-owned bytes a block is one
// allocation per 4 KB of decoded payload or 128 attributes at worst.
const (
	arenaBlockBytes  = 4 << 10 // payload bytes per text-arena block
	arenaBlockAttrs  = 128     // Attr entries per attr-arena block (5 KB)
	arenaChainBlocks = 16      // blocks an arena keeps for reuse
)

type arena[T any] struct {
	blocks [][]T // the chain; len(block) is what is carved from it
	cur    int   // the block being filled
	size   int   // entries per block
	wipe   T     // what a rewound entry is overwritten with under spexpoison

	allocs int64 // blocks allocated for the current stream
	carved int64 // entries carved for the current stream
}

// take returns n fresh entries. The slice has capacity n, so an append to it
// cannot run into later carvings.
func (a *arena[T]) take(n int) []T {
	a.carved += int64(n)
	if n > a.size {
		// An oversized token gets a block of its own, outside the chain:
		// keeping it would pin the high-water mark.
		a.allocs++
		return make([]T, n)
	}
	if len(a.blocks) == 0 || cap(a.blocks[a.cur])-len(a.blocks[a.cur]) < n {
		a.advance()
	}
	b := a.blocks[a.cur]
	off := len(b)
	a.blocks[a.cur] = b[:off+n]
	return b[off : off+n : off+n]
}

// advance moves the cursor to an empty block: the next one of the chain, a new
// one appended to it, or — the chain being full — a new one in place of the
// last.
func (a *arena[T]) advance() {
	if a.cur+1 < len(a.blocks) {
		a.cur++ // rewind emptied it
		return
	}
	a.allocs++
	fresh := make([]T, 0, a.size)
	if len(a.blocks) < arenaChainBlocks {
		a.blocks = append(a.blocks, fresh)
		a.cur = len(a.blocks) - 1
		return
	}
	a.blocks[a.cur] = fresh
}

// rewind empties the chain for reuse. The caller asserts that everything
// carved so far is dead. Entries are cleared so that a reused block does not
// pin what the old attribute values pointed into.
func (a *arena[T]) rewind() {
	for i := 0; i <= a.cur && i < len(a.blocks); i++ {
		b := a.blocks[i]
		if poison {
			for j := range b {
				b[j] = a.wipe
			}
		} else {
			clear(b)
		}
		a.blocks[i] = b[:0]
	}
	a.cur = 0
}

// reset is rewind at a stream boundary: the accounting starts over too.
func (a *arena[T]) reset() {
	a.rewind()
	a.allocs, a.carved = 0, 0
}

// carve copies b into the text arena and returns it as a string aliasing the
// arena's storage.
func carve(a *arena[byte], b []byte) string {
	if len(b) == 0 {
		return ""
	}
	dst := a.take(len(b))
	copy(dst, b)
	return unsafe.String(&dst[0], len(dst))
}

// IngestStats reports the ingest path's buffer economy for observability, per
// scanned stream. Chunks is the number of concurrently scanned chunks (1 for
// a serial scanner).
type IngestStats struct {
	// ArenaBytes counts the payload bytes copied out of the read window:
	// entity-decoded text and attribute values, CDATA content, and text runs
	// the window could not hold in one piece. Everything else is a view.
	ArenaBytes  int64
	ArenaBlocks int64 // arena blocks allocated during the stream
	ArenaAttrs  int64 // attribute entries carved from the attr arena
	BufferBytes int64 // read-buffer bytes owned by the scanner
	Chunks      int64 // concurrently scanned chunks (parallel mode)
}

// IngestStats returns the scanner's buffer/arena accounting.
func (s *Scanner) IngestStats() IngestStats {
	st := IngestStats{
		ArenaBytes:  s.text.carved,
		ArenaBlocks: s.text.allocs + s.attrs.allocs,
		ArenaAttrs:  s.attrs.carved,
		Chunks:      1,
	}
	if s.ownBuf != nil {
		st.BufferBytes = int64(len(s.ownBuf))
	}
	return st
}
