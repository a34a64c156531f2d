package serve

import (
	"encoding/binary"
	"sync"
	"unsafe"
)

// The memo remembers the answer to every request the server ranked: the
// query and tuple renderings, the engine and the ranked, rendered facts a
// response carries. The server's database is read-only for its lifetime,
// and locate (the first match in Key order), ExactBudget and CNFProxy are
// deterministic, so an answer depends only on the request's SQL text, its
// tuple strings and the exact budget. Those make the key (requestKey),
// and a request the memo holds is answered without a parse, an evaluation,
// a compile, a sort or a rendering (Server.answer). /rank and /explain share
// the entries; an error is never stored.
//
// The memo retains at most limit bytes, counted as each entry's key,
// renderings and facts plus entryOverhead; the oldest entries go first, and
// an entry larger than the bound is never stored. A mutex guards it:
// Server.answer runs on a compile turn, so at most Config.Workers callers
// contend. Two concurrent misses on one request may both compute it; the
// first to finish stores it.

// memoBytes bounds the bytes a server's memo retains. The answers to all
// 1,477 output tuples of the default IMDB and Academic corpora count 1.77 MB
// in all, and the largest 17 KB.
const memoBytes = 16 << 20

// memoEntry is one remembered answer. It is never modified once stored, so
// it is read without the memo's lock and its facts are shared by every
// response that carries them.
type memoEntry struct {
	query  string // the parsed query's SQL()
	tuple  string // the located tuple's String()
	engine string
	facts  []RankedFact
	size   int // bytes counted against the memo's limit
}

// entryOverhead is what an entry retains besides its key, its renderings
// and its facts (its engine names a constant string), on 64-bit platforms:
//   - the entry itself: 80 bytes;
//   - its map slot: the key's string header, the entry pointer and the
//     table's control byte, 25 bytes, at the 7/16 load a swiss table falls
//     to right after it doubles: 57 bytes;
//   - its FIFO slot: a string header, twice, because append grows the
//     resliced FIFO to at most twice its remaining length: 32 bytes;
//   - allocation rounding: besides the entry, a one-fact answer allocates
//     the key, the two renderings, the facts' array and the fact's text, and
//     a size class of at most 256 bytes rounds each up by less than 16
//     bytes, 8 on average: 40 bytes.
//
// Counted so, a full memo retains 0.94–1.03 times its bound on the heap
// (DESIGN.md §8).
const entryOverhead = int(unsafe.Sizeof(memoEntry{})) +
	int(unsafe.Sizeof("")+unsafe.Sizeof(&memoEntry{})+1)*16/7 +
	2*int(unsafe.Sizeof("")) +
	5*8

// memo maps requests to their answers under a byte bound, evicting in
// insertion order. Its map is allocated on the first store.
type memo struct {
	limit int // the byte bound: memoBytes, lowered by in-package tests

	mu      sync.Mutex
	entries map[string]*memoEntry
	order   []string // the stored keys, oldest first
	bytes   int      // the sum of the stored entries' sizes
}

// requestKey is the memo key of req under the exact budget: the budget,
// then the SQL text and each tuple value, each prefixed with its length, so
// that no two requests share a key. The tuple ["a", "bc"] and ["ab", "c"]
// differ, and so do two splits of the same bytes between the SQL and the
// tuple.
func requestKey(budget int, req RankRequest) []byte {
	b := binary.AppendVarint(nil, int64(budget))
	b = binary.AppendUvarint(b, uint64(len(req.SQL)))
	b = append(b, req.SQL...)
	for _, v := range req.Tuple {
		b = binary.AppendUvarint(b, uint64(len(v)))
		b = append(b, v...)
	}
	return b
}

// get returns the answer stored under key, or nil.
func (m *memo) get(key []byte) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entries[string(key)]
}

// put stores e under key, first evicting the oldest entries until it fits.
// It stores nothing when the entry alone is over the bound, or when key is
// taken by a concurrent miss on the same request.
func (m *memo) put(key string, e *memoEntry) {
	e.size = entrySize(key, e)
	if e.size > m.limit {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[key]; ok {
		return
	}
	for m.bytes+e.size > m.limit {
		oldest := m.order[0]
		m.order[0] = "" // the array keeps its dead prefix until append moves it
		m.order = m.order[1:]
		m.bytes -= m.entries[oldest].size
		delete(m.entries, oldest)
	}
	if m.entries == nil {
		m.entries = make(map[string]*memoEntry)
	}
	m.entries[key] = e
	m.order = append(m.order, key)
	m.bytes += e.size
}

// stats reports how many answers the memo holds and the bytes they count.
func (m *memo) stats() (entries, bytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries), m.bytes
}

// entrySize is the bytes the entry e stored under key counts: the key, the
// query and tuple renderings, the rendered facts with their text, and
// entryOverhead.
func entrySize(key string, e *memoEntry) int {
	n := len(key) + len(e.query) + len(e.tuple) + entryOverhead
	for _, f := range e.facts {
		n += int(unsafe.Sizeof(f)) + len(f.Fact)
	}
	return n
}
