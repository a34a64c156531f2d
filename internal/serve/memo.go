package serve

import (
	"math/rand/v2"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/provenance"
	"repro/internal/relation"
)

// The memo remembers the answer of every lineage the server ranked: the
// engine and the ranked, rendered facts a response carries. An answer
// depends only on the lineage's monomials, in any order (the exact engine
// renumbers and sorts the formula before compiling, and the proxy counts
// derivations), and on the exact budget. So a request whose lineage the memo
// holds under the current budget is answered without a compile, a sort or a
// rendering (Server.answer).
//
// A lineage is keyed by its hash (lineageHash) and the budget, and a key
// match alone never answers: get compares the stored monomials with the
// request's. The memo retains at most limit bytes, counted as each entry's
// monomials and rendered facts; the oldest entries go first, and an entry
// larger than the bound is never stored. A mutex guards it: Server.answer
// runs on a compile turn, so at most Config.Workers callers contend. Two
// concurrent misses on one lineage may both compute it; the first to finish
// stores it.

// memoBytes bounds the bytes a server's memo retains. The answers of the
// 1,121 distinct lineages of the default IMDB and Academic corpora count
// 0.93 MB in all, and the largest 20 KB.
const memoBytes = 16 << 20

// memoSeed seeds lineageHash.
var memoSeed = rand.Uint64()

// memoKey names one remembered answer: the lineage's hash and the exact
// budget it was answered under.
type memoKey struct {
	hash   uint64
	budget int
}

// memoEntry is one remembered answer. It is never modified once stored, so
// it is read without the memo's lock and its facts are shared by every
// response that carries them.
type memoEntry struct {
	monomials []provenance.Monomial // a copy of the lineage's, to verify a hit
	engine    string
	facts     []RankedFact
	size      int // bytes counted against the memo's limit
}

// memo maps lineages to their answers under a byte bound, evicting in
// insertion order. Its map is allocated on the first store.
type memo struct {
	limit int // the byte bound: memoBytes, lowered by in-package tests

	mu      sync.Mutex
	entries map[memoKey]*memoEntry
	order   []memoKey // the stored keys, oldest first
	bytes   int       // the sum of the stored entries' sizes
}

// get returns the answer stored under k when its lineage has the same
// monomials as prov, and nil otherwise.
func (m *memo) get(k memoKey, prov *provenance.DNF) *memoEntry {
	m.mu.Lock()
	e := m.entries[k]
	m.mu.Unlock()
	if e == nil || !sameMonomials(e.monomials, prov.Monomials) {
		return nil
	}
	return e
}

// put stores the answer of prov under k, first evicting the oldest entries
// until it fits. It stores nothing when the answer alone is over the bound,
// or when k is taken: by the same lineage, stored by a concurrent miss, or
// by another lineage with an equal hash, which keeps the key.
func (m *memo) put(k memoKey, prov *provenance.DNF, engine string, facts []RankedFact) {
	size := entrySize(prov.Monomials, facts)
	if size > m.limit {
		return
	}
	e := &memoEntry{monomials: prov.Clone().Monomials, engine: engine, facts: facts, size: size}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[k]; ok {
		return
	}
	for m.bytes+size > m.limit {
		oldest := m.order[0]
		m.order = m.order[1:]
		m.bytes -= m.entries[oldest].size
		delete(m.entries, oldest)
	}
	if m.entries == nil {
		m.entries = make(map[memoKey]*memoEntry)
	}
	m.entries[k] = e
	m.order = append(m.order, k)
	m.bytes += size
}

// stats reports how many answers the memo holds and the bytes they count.
func (m *memo) stats() (entries, bytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries), m.bytes
}

// entrySize is the bytes an entry counts: its monomials (their fact IDs and
// slice headers) and its rendered facts with their text.
func entrySize(monomials []provenance.Monomial, facts []RankedFact) int {
	n := len(monomials) * int(unsafe.Sizeof(provenance.Monomial(nil)))
	for _, mono := range monomials {
		n += len(mono) * int(unsafe.Sizeof(relation.FactID(0)))
	}
	for _, f := range facts {
		n += int(unsafe.Sizeof(f)) + len(f.Fact)
	}
	return n
}

// sameMonomials reports whether a and b hold the same monomials in any
// order, as DNF.Key() equates them. Monomials are sorted
// (provenance.NewMonomial), so equal monomials are equal slices. A repeated
// request evaluates its lineage in the same order, so the sort runs only
// when the orders differ.
func sameMonomials(a, b []provenance.Monomial) bool {
	if len(a) != len(b) {
		return false
	}
	if slices.EqualFunc(a, b, slices.Equal[provenance.Monomial]) {
		return true
	}
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, slices.Compare[provenance.Monomial])
	slices.SortFunc(b, slices.Compare[provenance.Monomial])
	return slices.EqualFunc(a, b, slices.Equal[provenance.Monomial])
}

// lineageHash hashes a lineage's provenance for the memo without a sort or
// a string. Each monomial is hashed in its own order, which
// provenance.NewMonomial keeps sorted, and the monomial hashes are summed, so
// DNFs that list the same monomials in any order, as DNF.Key() equates them,
// hash alike.
func lineageHash(prov *provenance.DNF) uint64 {
	var sum uint64
	for _, m := range prov.Monomials {
		h := memoSeed
		for _, id := range m {
			h = mix64(h ^ uint64(id))
		}
		sum += h
	}
	return sum
}

// mix64 is SplitMix64's finalizer: a bijection on 64 bits in which every
// output bit depends on every input bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
