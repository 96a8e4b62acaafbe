package bitset

import (
	"math/bits"
	"testing"
)

// TwoLevel is property-tested against the flat Set as the reference: both
// are driven through the same operation stream, and every accessor — Get,
// Count, Any, AppendMembers, AbsorbInto — must agree. The summary
// invariant (bit set ⇔ leaf word non-zero) is checked directly after every
// stream, because a stale summary bit is invisible to Get yet silently
// drops members from the O(active-words) sweeps.

func checkSummaryInvariant(t *testing.T, s *TwoLevel) {
	t.Helper()
	for wi, w := range s.words {
		got := s.summary[wi>>6]&(1<<(uint(wi)&63)) != 0
		if got != (w != 0) {
			t.Fatalf("summary bit for word %d is %v, word = %#x", wi, got, w)
		}
	}
}

func FuzzTwoLevel(f *testing.F) {
	f.Add(1, []byte{})
	f.Add(64, []byte{0xff, 0x01})
	f.Add(65, []byte{7, 7, 7, 7})
	f.Add(4097, []byte{1, 3, 5, 2, 4, 6}) // straddles a summary word
	f.Add(5000, []byte{0, 64, 128, 192, 255})
	f.Fuzz(func(t *testing.T, n int, data []byte) {
		if n < 1 || n > 1<<15 {
			t.Skip()
		}
		var tl TwoLevel
		tl.Reset(n)
		ref := New(n)
		// Spread the byte stream across the universe: byte k drives element
		// (k*4099+7) % n, so runs hit distinct leaf AND summary words.
		for k, b := range data {
			i := (k*4099 + 7) % n
			if b&1 != 0 {
				tl.Set(i)
				ref.Set(i)
			}
			if b&2 != 0 {
				tl.Unset(i)
				ref.Unset(i)
			}
		}
		checkSummaryInvariant(t, &tl)

		for i := 0; i < n; i++ {
			if tl.Get(i) != ref.Get(i) {
				t.Fatalf("n=%d: Get(%d) = %v, reference %v", n, i, tl.Get(i), ref.Get(i))
			}
		}
		wantCount := ref.Count()
		if got := tl.Count(); got != wantCount {
			t.Fatalf("n=%d: Count = %d, reference %d", n, got, wantCount)
		}
		if tl.Any() != (wantCount > 0) {
			t.Fatalf("n=%d: Any = %v with %d members", n, tl.Any(), wantCount)
		}

		got := tl.AppendMembers(nil)
		want := ref.AppendMembers(nil)
		if len(got) != len(want) {
			t.Fatalf("n=%d: AppendMembers returned %d members, reference %d", n, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("n=%d: AppendMembers[%d] = %d, reference %d", n, k, got[k], want[k])
			}
		}

		// AbsorbInto against a partially-overlapping destination: the return
		// value must be the count of genuinely new members.
		dst := New(n)
		overlap := 0
		for k, i := range want {
			if k%2 == 0 {
				dst.Set(int(i))
				overlap++
			}
		}
		added := tl.AbsorbInto(&dst)
		if added != wantCount-overlap {
			t.Fatalf("n=%d: AbsorbInto added %d, want %d", n, added, wantCount-overlap)
		}
		if dst.Count() != wantCount {
			t.Fatalf("n=%d: destination has %d members after absorb, want %d", n, dst.Count(), wantCount)
		}
		if tl.Any() || tl.Count() != 0 {
			t.Fatalf("n=%d: AbsorbInto left the source non-empty", n)
		}
		checkSummaryInvariant(t, &tl)
	})
}

// TestTwoLevelSparseSweep pins the O(active words) claim structurally: a
// single member in a large universe must make AppendMembers touch exactly
// one leaf word, which the summary popcount witnesses.
func TestTwoLevelSparseSweep(t *testing.T) {
	tl := NewTwoLevel(1 << 20)
	tl.Set(777_777)
	active := 0
	for _, sw := range tl.summary {
		active += bits.OnesCount64(sw)
	}
	if active != 1 {
		t.Fatalf("one member lit %d summary bits, want 1", active)
	}
	if m := tl.AppendMembers(nil); len(m) != 1 || m[0] != 777_777 {
		t.Fatalf("AppendMembers = %v, want [777777]", m)
	}
	tl.Unset(777_777)
	if tl.Any() {
		t.Fatal("Unset of the only member left the set non-empty")
	}
}
