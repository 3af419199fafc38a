package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync"
)

// This file is the isomorphic-ball deduplication layer of the local-LP
// pipeline. The paper's instance families — tori, regular graphs, the
// §4 construction — are highly symmetric: most agents' local LPs (9) are
// element-for-element identical once written in ball-relative indices.
// Each candidate LP is summarised by a canonical fingerprint (the exact
// ball-relative constraint structure and coefficient bits); agents whose
// fingerprints match byte-for-byte share one simplex solve. Because a
// reused solution is only ever taken after an exact key comparison —
// the hash is just a bucket locator — the dedup path is bit-identical
// to solving every agent's LP independently: it returns the very same
// float64s the reference path would compute.

// keyRowEnd terminates one constraint row inside a canonical key. Local
// indices are < 2^31, so the sentinel can never collide with one.
const keyRowEnd = uint32(0xffffffff)

// appendKeyHeader starts a canonical key: the ball size determines the
// variable count (nLoc + 1 including ω) and the objective, so together
// with the rows it pins down the entire LP.
func appendKeyHeader(b []byte, nLoc, nRows int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(nLoc))
	return binary.LittleEndian.AppendUint32(b, uint32(nRows))
}

// appendKeyEntry appends one (ball-local column, coefficient) pair. The
// coefficient is encoded by its exact bit pattern: two keys are equal
// iff the assembled constraint rows hold identical float64s.
func appendKeyEntry(b []byte, localIdx int32, coeff float64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(localIdx))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(coeff))
}

// appendKeyRowEnd closes a constraint row, making rows self-delimiting:
// a canonical key decodes back to exactly one LP.
func appendKeyRowEnd(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, keyRowEnd)
}

// fnv64a hashes a canonical key for bucket lookup: FNV-1a folded over
// 8-byte words instead of bytes (keys run to kilobytes on large balls,
// so byte-at-a-time hashing showed up in profiles). Any mixing function
// works here — collisions are harmless because entries are confirmed by
// exact key comparison before any reuse.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for len(b) >= 8 {
		h ^= binary.LittleEndian.Uint64(b)
		h *= 1099511628211
		b = b[8:]
	}
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// cacheEntry is one solved local LP: its full canonical key (owned
// copy), the solution over the ball's local indices, the optimum ω and
// the pivots the solve took.
type cacheEntry struct {
	key    []byte
	x      []float64
	omega  float64
	pivots int
}

// solveCache maps canonical fingerprints to solved local LPs. Buckets
// are keyed by hash; every probe confirms the full key with bytes.Equal,
// so a hash collision can cost a duplicate solve but never a wrong
// reuse. Entries are immutable once inserted and are referenced by
// pointer (never moved), so callers — the session's retained per-agent
// results — may hold entries across later inserts and compactions. All
// access goes through the internal mutex, so one cache can be shared by
// concurrent solves.
type solveCache struct {
	mu      sync.Mutex
	buckets map[uint64][]*cacheEntry
	size    int
	hits    int
}

func newSolveCache() *solveCache {
	return &solveCache{buckets: make(map[uint64][]*cacheEntry)}
}

// lookup returns the entry whose key equals key exactly, or nil.
func (c *solveCache) lookup(hash uint64, key []byte) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupLocked(hash, key)
}

func (c *solveCache) lookupLocked(hash uint64, key []byte) *cacheEntry {
	for _, e := range c.buckets[hash] {
		if bytes.Equal(e.key, key) {
			return e
		}
	}
	return nil
}

// insert stores owned copies of the key and solution and returns the
// stored entry. If an equal key was inserted concurrently (two nodes of
// a distributed run solving the same LP), the existing entry is returned
// instead — the duplicate solve produced bit-identical numbers, so
// either entry serves every holder.
func (c *solveCache) insert(hash uint64, key []byte, x []float64, omega float64, pivots int) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.lookupLocked(hash, key); e != nil {
		return e
	}
	e := &cacheEntry{
		key:    append([]byte(nil), key...),
		x:      append([]float64(nil), x...),
		omega:  omega,
		pivots: pivots,
	}
	c.buckets[hash] = append(c.buckets[hash], e)
	c.size++
	return e
}

// addHits bumps the cache-hit counter by n.
func (c *solveCache) addHits(n int) {
	c.mu.Lock()
	c.hits += n
	c.mu.Unlock()
}

// counts returns (distinct entries stored, hits served).
func (c *solveCache) counts() (size, hits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size, c.hits
}

// compact drops every entry not in keep, reclaiming cache slots whose
// canonical keys can no longer occur (after a weight update changed the
// coefficient bits they encode). Holders of dropped entries are
// unaffected: entries are immutable and pointer-stable.
func (c *solveCache) compact(keep map[*cacheEntry]bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for hash, es := range c.buckets {
		w := 0
		for _, e := range es {
			if keep[e] {
				es[w] = e
				w++
			}
		}
		if w == 0 {
			delete(c.buckets, hash)
		} else {
			c.buckets[hash] = es[:w]
		}
	}
	c.size = 0
	for _, es := range c.buckets {
		c.size += len(es)
	}
}

// SolveCache is a reusable isomorphic-ball local-LP cache. Keys are
// purely content-based — the ball-relative constraint structure and the
// exact coefficient bits of the local LP (9) — so one cache may be
// shared across radii (AdaptiveAverage does) and even across instances.
// The zero value is not usable; construct with NewSolveCache. All
// operations are internally synchronised, so one cache may serve
// concurrent LocalAverageOpt calls through AverageOptions.Cache.
type SolveCache struct{ c *solveCache }

// NewSolveCache returns an empty cache.
func NewSolveCache() *SolveCache { return &SolveCache{c: newSolveCache()} }

// DistinctSolves returns the number of distinct local LPs stored.
func (s *SolveCache) DistinctSolves() int { n, _ := s.c.counts(); return n }

// Hits returns how many solves were answered from the cache.
func (s *SolveCache) Hits() int { _, h := s.c.counts(); return h }
