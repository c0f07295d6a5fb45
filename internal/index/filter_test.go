package index

import "testing"

// TestFilteredComposesWithLiveness: a Filtered source keeps a document only
// when the wrapped source's own tombstone mask and every filter keep it,
// leaves corpus statistics untouched, and disappears entirely when no
// non-nil filter is given.
func TestFilteredComposesWithLiveness(t *testing.T) {
	idx := buildSmall()
	if got := NewFiltered(idx, nil); got != Source(idx) {
		t.Fatal("NewFiltered with only nil filters must return the source unchanged")
	}
	dead := NewBitmap(idx.NumDocs())
	dead.Set(1)
	lf := NewLiveFiltered(idx, dead)
	if lf.NumLive() != 3 || lf.Live(1) || !lf.Live(0) || lf.Unwrap() != Source(idx) {
		t.Fatalf("LiveFiltered: NumLive=%d Live(1)=%v Live(0)=%v", lf.NumLive(), lf.Live(1), lf.Live(0))
	}
	notLast := FilterFunc(func(d DocID) bool { return d != 3 })
	f := NewFiltered(lf, notLast, nil).(*Filtered)
	want := []bool{true, false, true, false} // doc 1 tombstoned, doc 3 filtered out
	for d, keep := range want {
		if f.Live(DocID(d)) != keep {
			t.Fatalf("Live(%d) = %v, want %v", d, !keep, keep)
		}
	}
	if f.NumLive() != 2 {
		t.Fatalf("NumLive = %d, want 2", f.NumLive())
	}
	if f.Unwrap() != Source(lf) {
		t.Fatal("Unwrap lost the wrapped source")
	}
	if f.NumDocs() != idx.NumDocs() || f.AvgDocLen() != idx.AvgDocLen() || f.DF("lahore") != idx.DF("lahore") {
		t.Fatal("Filtered changed corpus statistics")
	}
	// Filters stack: wrapping a Filtered composes with its liveness too.
	notFirst := FilterFunc(func(d DocID) bool { return d != 0 })
	if g := NewFiltered(f, notFirst).(*Filtered); g.NumLive() != 1 || !g.Live(2) {
		t.Fatalf("stacked filter: NumLive = %d", g.NumLive())
	}
}
