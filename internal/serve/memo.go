package serve

import (
	"encoding/binary"
	"io"
	"sync"
	"unsafe"
)

// The memo remembers the answer to every request the server ranked, as the
// exact bytes of its /rank response. The server's database is read-only for
// its lifetime, and the decode, locate (the first match in Key order),
// ExactBudget, CNFProxy and the encoder are deterministic, so an answer
// depends only on the request's body and the exact budget. Those make the
// key (readKey), and a request the memo holds is answered without a decode,
// a parse, an evaluation, a compile, a sort, a rendering or an encode
// (Server.answer). /rank and /explain share the entries; an error is never
// stored.
//
// The memo retains at most limit bytes, counted as each entry's key and
// body plus entryOverhead; the oldest entries go first, and an entry larger
// than the bound is never stored. A mutex guards it: Server.answer runs on
// a compile turn, so at most Config.Workers callers contend. Two concurrent
// misses on one request may both compute it; the first to finish stores it.

// memoBytes bounds the bytes a server's memo retains. The answers to all
// 1,477 output tuples of the default IMDB and Academic corpora count
// 1.95 MB in all, and the largest 18 KB.
const memoBytes = 16 << 20

// memoEntry is one remembered answer. It is never modified once stored, so
// it is read without the memo's lock and its body is shared by every
// response that carries it.
type memoEntry struct {
	engine string // for the serve.rank.* counters and the access log
	body   []byte // the /rank response, as json.Encoder writes RankResponse
	size   int    // bytes counted against the memo's limit
}

// entryOverhead is what an entry retains besides its key and its body (its
// engine names a constant string), on 64-bit platforms:
//   - the entry itself: 48 bytes, a size class of its own;
//   - its map slot: the key's string header, the entry pointer and the
//     table's control byte, 25 bytes, at the 7/16 load a swiss table falls
//     to right after it doubles: 57 bytes;
//   - its FIFO slot: a string header and a quarter, because append grows a
//     FIFO of more than 256 keys by about a quarter, and the array keeps its
//     evicted prefix until append moves it: 20 bytes;
//   - allocation rounding: besides the entry, an answer allocates its key
//     and its body, and a size class of at most 512 bytes rounds each up by
//     8 to 16 bytes on average: 24 bytes.
//
// Counted so, a full memo retains 0.97–1.03 times its bound on the heap
// (DESIGN.md §8).
const entryOverhead = int(unsafe.Sizeof(memoEntry{})) +
	int(unsafe.Sizeof("")+unsafe.Sizeof(&memoEntry{})+1)*16/7 +
	int(unsafe.Sizeof(""))*5/4 +
	2*12

// memo maps requests to their answers under a byte bound, evicting in
// insertion order. Its map is allocated on the first store.
type memo struct {
	limit int // the byte bound: memoBytes, lowered by in-package tests

	mu      sync.Mutex
	entries map[string]*memoEntry
	order   []string // the stored keys, oldest first
	bytes   int      // the sum of the stored entries' sizes
}

// keyPresize bounds the buffer readKey sizes from a declared length before
// the body arrives, so that a client declaring a large body and sending it
// slowly cannot make each connection hold maxBodyBytes. Legitimate bodies,
// a few KiB, fit in one allocation; a longer one grows as it is read.
const keyPresize = 64 << 10

// readKey reads a request body from r into its memo key under the exact
// budget: the budget as a varint, then the body's bytes. A varint delimits
// itself, so no two (budget, body) pairs share a key. size is the body's
// length when known (its Content-Length), else negative; when it is right,
// the key is the one allocation, the body read straight into it after the
// varint.
func readKey(budget int, r io.Reader, size int64) ([]byte, error) {
	n := 512
	if size >= 0 {
		n = int(min(size, keyPresize)) + 1 // the spare byte takes the read that sees EOF
	}
	key := binary.AppendVarint(make([]byte, 0, binary.MaxVarintLen64+n), int64(budget))
	for {
		m, err := r.Read(key[len(key):cap(key)])
		key = key[:len(key)+m]
		if err == io.EOF {
			return key, nil
		}
		if err != nil {
			return nil, err
		}
		if len(key) == cap(key) {
			key = append(key, 0)[:len(key)]
		}
	}
}

// keyBody returns the request body a key holds after its budget.
func keyBody(key []byte) []byte {
	_, n := binary.Varint(key)
	return key[n:]
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
// body and entryOverhead.
func entrySize(key string, e *memoEntry) int {
	return len(key) + len(e.body) + entryOverhead
}
