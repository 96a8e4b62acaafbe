package bitset

import "math/bits"

// TwoLevel is a hierarchical bitset over a fixed universe: the same
// word-packed membership array as Set, plus one summary level where bit i
// of summary word w is set iff words[64*w+i] is non-zero. Sweeps that
// only care about the occupied part of the set — iterate members, absorb
// into another set, clear — walk the summary first and touch only
// non-empty leaf words, so they cost O(active words) instead of O(n/64).
//
// That is the asymptotic a million-node flood needs: the active frontier
// of a sparse spreading process is a vanishing fraction of the universe
// for most of the run, and per-step work proportional to n/64 words (even
// at one compare per word) would swamp the O(churn + frontier) budget.
// At n = 10^6 a flat sweep reads 15625 words; a two-level sweep with a
// 100-node frontier reads at most ~345 (245 summary + 100 leaves).
//
// The summary costs n/4096 extra words (one bit per leaf word) — 0.4 KB
// at n = 10^6. Single-bit operations pay one extra word write to keep the
// summary exact; Unset recomputes the leaf's summary bit, so the
// invariant "summary bit set ⇔ leaf word non-zero" holds at all times.
// The zero value is an empty set over the empty universe; size it with
// Reset.
type TwoLevel struct {
	words   []uint64
	summary []uint64
	n       int
}

// NewTwoLevel returns an empty two-level set over {0, ..., n-1}.
func NewTwoLevel(n int) TwoLevel {
	var s TwoLevel
	s.Reset(n)
	return s
}

// Reset re-sizes the set for a universe of n elements and empties it,
// reusing both backing arrays when capacity allows.
func (s *TwoLevel) Reset(n int) {
	w := (n + 63) >> 6
	sw := (w + 63) >> 6
	if cap(s.words) < w {
		s.words = make([]uint64, w)
	} else {
		s.words = s.words[:w]
		clear(s.words)
	}
	if cap(s.summary) < sw {
		s.summary = make([]uint64, sw)
	} else {
		s.summary = s.summary[:sw]
		clear(s.summary)
	}
	s.n = n
}

// Bytes returns the heap bytes retained by both levels.
func (s *TwoLevel) Bytes() int64 {
	return int64(cap(s.words))*8 + int64(cap(s.summary))*8
}

// Get reports whether i is a member. The index contract matches Set.Get:
// word-bound checks only, universe slack undetected.
func (s *TwoLevel) Get(i int) bool {
	return s.words[uint(i)>>6]&(1<<(uint(i)&63)) != 0
}

// Set adds i to the set, marking its leaf word in the summary.
func (s *TwoLevel) Set(i int) {
	w := uint(i) >> 6
	s.words[w] |= 1 << (uint(i) & 63)
	s.summary[w>>6] |= 1 << (w & 63)
}

// Unset removes i from the set, clearing the summary bit when its leaf
// word empties.
func (s *TwoLevel) Unset(i int) {
	w := uint(i) >> 6
	s.words[w] &^= 1 << (uint(i) & 63)
	if s.words[w] == 0 {
		s.summary[w>>6] &^= 1 << (w & 63)
	}
}

// Count returns the number of members, popcounting only active words.
func (s *TwoLevel) Count() int {
	c := 0
	for si, sw := range s.summary {
		base := si << 6
		for sw != 0 {
			c += bits.OnesCount64(s.words[base+bits.TrailingZeros64(sw)])
			sw &= sw - 1
		}
	}
	return c
}

// Any reports whether the set is non-empty, in O(summary words).
func (s *TwoLevel) Any() bool {
	for _, sw := range s.summary {
		if sw != 0 {
			return true
		}
	}
	return false
}

// AppendMembers appends the members of s to dst in ascending order,
// walking only active words via the summary.
func (s *TwoLevel) AppendMembers(dst []int32) []int32 {
	for si, sw := range s.summary {
		sbase := si << 6
		for sw != 0 {
			wi := sbase + bits.TrailingZeros64(sw)
			sw &= sw - 1
			base := int32(wi << 6)
			w := s.words[wi]
			for w != 0 {
				dst = append(dst, base+int32(bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
	}
	return dst
}

// AbsorbInto merges s into the flat set dst, empties s, and returns the
// number of members newly added to dst — the two-level counterpart of
// Set.Absorb, with the roles arranged for the spreading-step commit:
// pending (sparse, two-level) absorbs into informed (dense, flat). Only
// active words are touched, so the commit is O(frontier words), and the
// returned delta lets the caller maintain |informed| incrementally
// instead of re-popcounting the dense set. The sets must share a
// universe.
func (s *TwoLevel) AbsorbInto(dst *Set) int {
	if s.n != dst.n {
		panic("bitset: AbsorbInto across different universes")
	}
	added := 0
	for si, sw := range s.summary {
		base := si << 6
		for sw != 0 {
			wi := base + bits.TrailingZeros64(sw)
			sw &= sw - 1
			w := s.words[wi]
			added += bits.OnesCount64(w &^ dst.words[wi])
			dst.words[wi] |= w
			s.words[wi] = 0
		}
		s.summary[si] = 0
	}
	return added
}
