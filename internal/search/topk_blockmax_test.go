package search

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"newslink/internal/index"
)

// randomCorpus builds an index large enough that frequent terms span many
// postings blocks, with a mix of integral and fractional term weights.
func randomCorpus(rng *rand.Rand, nDocs int, vocab []string) *index.Index {
	b := index.NewBuilder()
	for d := 0; d < nDocs; d++ {
		n := 1 + rng.Intn(8)
		counts := make(map[string]float32, n)
		for i := 0; i < n; i++ {
			t := vocab[rng.Intn(len(vocab))]
			if rng.Intn(4) == 0 {
				counts[t] += float32(rng.Intn(8)) / 4.0 // fractional weights (BON path)
			} else {
				counts[t]++
			}
		}
		b.AddWeighted(counts)
	}
	return b.Build()
}

// TestBlockMaxAgreesWithExact: the block-pruned evaluation must return
// exactly the same ranking and scores as exhaustive accumulation, on random
// corpora from a single partial block up to many blocks, for both the
// sequential and the sharded paths. Both sum in the canonical term order
// over the same documents, so equality is bitwise.
func TestBlockMaxAgreesWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	ctx := context.Background()
	for trial := 0; trial < 25; trial++ {
		nDocs := 50 + rng.Intn(2000)
		idx := randomCorpus(rng, nDocs, vocab)
		s := NewBM25(idx)
		nq := 1 + rng.Intn(4)
		q := Query{}
		for i := 0; i < nq; i++ {
			q[vocab[rng.Intn(len(vocab))]] = 0.5 + rng.Float64()
		}
		k := 1 + rng.Intn(12)
		exact := TopK(idx, s, q, k)
		blockmax, bmStats, err := TopKBlockMaxStats(ctx, idx, s, q, k)
		if err != nil {
			t.Fatalf("trial %d: block-max error: %v", trial, err)
		}
		shards := 2 + rng.Intn(4)
		sharded, _, err := TopKBlockMaxShardedStats(ctx, idx, s, q, k, shards)
		if err != nil {
			t.Fatalf("trial %d: sharded block-max error: %v", trial, err)
		}
		if len(blockmax) != len(exact) || len(sharded) != len(exact) {
			t.Fatalf("trial %d: lengths exact=%d blockmax=%d sharded=%d",
				trial, len(exact), len(blockmax), len(sharded))
		}
		for i := range exact {
			if blockmax[i] != exact[i] {
				t.Fatalf("trial %d rank %d: exact %v blockmax %v (query %v k=%d)",
					trial, i, exact[i], blockmax[i], q, k)
			}
			if sharded[i] != exact[i] {
				t.Fatalf("trial %d rank %d: exact %v sharded blockmax %v", trial, i, exact[i], sharded[i])
			}
		}
		if bmStats.Scored+bmStats.Skipped > bmStats.Postings {
			t.Fatalf("trial %d: scored %d + skipped %d > postings %d",
				trial, bmStats.Scored, bmStats.Skipped, bmStats.Postings)
		}
	}
}

// TestMaxScoreAgreesWithExact: on small random corpora — each term's
// postings fit in a single partial block — the pruned evaluation must return
// exactly the same ranking and scores as exhaustive accumulation.
func TestMaxScoreAgreesWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for trial := 0; trial < 30; trial++ {
		b := index.NewBuilder()
		nDocs := 5 + rng.Intn(60)
		for d := 0; d < nDocs; d++ {
			n := 1 + rng.Intn(10)
			var terms []string
			for i := 0; i < n; i++ {
				terms = append(terms, vocab[rng.Intn(len(vocab))])
			}
			b.Add(terms)
		}
		idx := b.Build()
		s := NewBM25(idx)
		nq := 1 + rng.Intn(4)
		var qterms []string
		for i := 0; i < nq; i++ {
			qterms = append(qterms, vocab[rng.Intn(len(vocab))])
		}
		k := 1 + rng.Intn(10)
		exact := TopK(idx, s, NewQuery(qterms), k)
		pruned, _, err := TopKBlockMaxStats(context.Background(), idx, s, NewQuery(qterms), k)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(exact) != len(pruned) {
			t.Fatalf("trial %d: lengths %d vs %d", trial, len(exact), len(pruned))
		}
		for i := range exact {
			if exact[i] != pruned[i] {
				t.Fatalf("trial %d rank %d: exact %v pruned %v (query %v k=%d)",
					trial, i, exact[i], pruned[i], qterms, k)
			}
		}
	}
}

// TestBlockMaxAgreesOnDisk runs the same equivalence through a DiskIndex, so
// the disk cursors' block-granular ReadAt path is exercised too.
func TestBlockMaxAgreesOnDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	vocab := []string{"a", "b", "c", "d", "e"}
	idx := randomCorpus(rng, 3000, vocab)
	path := t.TempDir() + "/idx.bin"
	if err := writeIndexFile(idx, path); err != nil {
		t.Fatal(err)
	}
	d, err := index.OpenDiskIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	for trial := 0; trial < 10; trial++ {
		q := Query{}
		for i := 0; i <= rng.Intn(3); i++ {
			q[vocab[rng.Intn(len(vocab))]] = 1
		}
		k := 1 + rng.Intn(10)
		exact := TopK(idx, NewBM25(idx), q, k)
		got, _, err := TopKBlockMaxStats(ctx, d, NewBM25(d), q, k)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sharded, _, err := TopKBlockMaxShardedStats(ctx, d, NewBM25(d), q, k, 3)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(exact) || len(sharded) != len(exact) {
			t.Fatalf("trial %d: lengths exact=%d blockmax=%d sharded=%d", trial, len(exact), len(got), len(sharded))
		}
		for i := range exact {
			if got[i] != exact[i] {
				t.Fatalf("trial %d rank %d: exact %v blockmax %v", trial, i, exact[i], got[i])
			}
			if sharded[i] != exact[i] {
				t.Fatalf("trial %d rank %d: exact %v sharded %v", trial, i, exact[i], sharded[i])
			}
		}
	}
}

// writeIndexFile serializes idx to path.
func writeIndexFile(idx *index.Index, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := idx.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TestBlockMaxPrunesBlocks: the realistic skewed query shape — a rare,
// high-IDF term plus a frequent, low-IDF one — must skip most of the
// frequent term's blocks: after the rare term, the accumulator holds only
// its few documents, and frequent-term blocks containing none of them fall
// below the threshold, leaving most postings undecoded.
func TestBlockMaxPrunesBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := index.NewBuilder()
	for d := 0; d < 20000; d++ {
		terms := []string{"common"}
		if rng.Intn(400) == 0 {
			terms = append(terms, "rare")
		}
		if rng.Intn(2) == 0 {
			terms = append(terms, "filler")
		}
		b.Add(terms)
	}
	idx := b.Build()
	sc := NewBM25(idx)
	q := Query{"rare": 1, "common": 1}
	_, bmStats, err := TopKBlockMaxStats(context.Background(), idx, sc, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if bmStats.BlocksSkipped == 0 {
		t.Fatalf("expected pruned blocks, stats %+v", bmStats)
	}
	if bmStats.BlocksDecoded == 0 || bmStats.Scored == 0 {
		t.Fatalf("expected decoded blocks and scored postings, stats %+v", bmStats)
	}
	bmTouched := bmStats.Scored + bmStats.Skipped
	if bmTouched*2 > bmStats.Postings {
		t.Fatalf("block-max decoded %d of %d postings — expected < half, stats %+v",
			bmTouched, bmStats.Postings, bmStats)
	}
}

func TestBlockMaxEdgeCases(t *testing.T) {
	idx := buildIdx("a b", "b c")
	sc := NewBM25(idx)
	topK := func(q Query, k int) []Hit {
		hits, _, err := TopKBlockMaxStats(context.Background(), idx, sc, q, k)
		if err != nil {
			t.Fatal(err)
		}
		return hits
	}
	if topK(NewQuery(nil), 5) != nil {
		t.Fatal("empty query should return nil")
	}
	if topK(NewQuery([]string{"a"}), 0) != nil {
		t.Fatal("k=0 should return nil")
	}
	if got := topK(NewQuery([]string{"zzz"}), 5); got != nil {
		t.Fatalf("unknown term hits = %v", got)
	}
	if got := topK(NewQuery([]string{"a", "zzz"}), 100); len(got) != 1 {
		t.Fatalf("k > matches: %v", got)
	}
}

// TestBlockMaxCancellation: a canceled context aborts the sequential and
// sharded traversals with ctx.Err().
func TestBlockMaxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	idx := randomCorpus(rng, 5000, []string{"x", "y"})
	sc := NewBM25(idx)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := TopKBlockMaxStats(ctx, idx, sc, Query{"x": 1, "y": 1}, 10); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, _, err := TopKBlockMaxShardedStats(ctx, idx, sc, Query{"x": 1, "y": 1}, 10, 4); err != context.Canceled {
		t.Fatalf("sharded err = %v, want context.Canceled", err)
	}
}

// randomIndex builds a deterministic synthetic corpus: docs draw a
// zipf-flavoured number of terms from a bounded vocabulary so postings
// lists have realistic skew (a few huge, many tiny).
func randomIndex(nDocs, vocab int, seed int64) *index.Index {
	rng := rand.New(rand.NewSource(seed))
	b := index.NewBuilder()
	for d := 0; d < nDocs; d++ {
		n := 5 + rng.Intn(60)
		terms := make([]string, n)
		for i := range terms {
			// Square the draw to skew toward low term ids (frequent terms).
			t := rng.Intn(vocab)
			t = t * rng.Intn(vocab) / vocab
			terms[i] = fmt.Sprintf("t%d", t)
		}
		b.Add(terms)
	}
	return b.Build()
}

func randomQuery(rng *rand.Rand, vocab, nTerms int) Query {
	q := make(Query, nTerms)
	for i := 0; i < nTerms; i++ {
		q[fmt.Sprintf("t%d", rng.Intn(vocab))] = 1 + float64(rng.Intn(3))
	}
	return q
}

// TestShardedTopKMatchesSequential: the sharded traversal must return
// rankings identical to the sequential one — same documents, same scores
// (bit for bit), same tie-breaking — for every shard count, including
// more shards than documents.
func TestShardedTopKMatchesSequential(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		nDocs, vocab int
	}{
		{37, 40},
		{500, 120},
		{3000, 400},
	} {
		idx := randomIndex(tc.nDocs, tc.vocab, int64(tc.nDocs))
		scorer := NewBM25(idx)
		rng := rand.New(rand.NewSource(7))
		for qi := 0; qi < 8; qi++ {
			q := randomQuery(rng, tc.vocab, 2+qi%7)
			for _, k := range []int{1, 5, 20, 100} {
				want, _, err := TopKBlockMaxStats(ctx, idx, scorer, q, k)
				if err != nil {
					t.Fatal(err)
				}
				for _, shards := range []int{1, 2, 3, 4, 7, 16, tc.nDocs + 5} {
					got, st, err := TopKBlockMaxShardedStats(ctx, idx, scorer, q, k, shards)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("docs=%d q=%d k=%d shards=%d:\nsharded   %v\nsequential %v",
							tc.nDocs, qi, k, shards, got, want)
					}
					if st.Shards != min(shards, tc.nDocs) {
						t.Fatalf("docs=%d shards=%d: Stats.Shards = %d", tc.nDocs, shards, st.Shards)
					}
				}
			}
		}
	}
}

// TestShardedTopKAgainstExactTopK retrieves every matching document through
// the sharded traversal and checks the full ranking against the exhaustive
// reference, bit for bit.
func TestShardedTopKAgainstExactTopK(t *testing.T) {
	idx := randomIndex(800, 150, 3)
	scorer := NewBM25(idx)
	rng := rand.New(rand.NewSource(11))
	for qi := 0; qi < 6; qi++ {
		q := randomQuery(rng, 150, 3+qi)
		want := TopK(idx, scorer, q, idx.NumDocs())
		got, _, err := TopKBlockMaxShardedStats(context.Background(), idx, scorer, q, idx.NumDocs(), 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("q=%d: sharded %d hits != exact %d hits\n%v\nvs\n%v", qi, len(got), len(want), got, want)
		}
	}
}

// TestTopKCancellation: on a skewed many-term corpus, sequential and sharded
// traversals abort with ctx.Err() on an already-cancelled context.
func TestTopKCancellation(t *testing.T) {
	idx := randomIndex(200, 60, 5)
	scorer := NewBM25(idx)
	q := Query{"t1": 1, "t2": 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := TopKBlockMaxStats(ctx, idx, scorer, q, 10); err != context.Canceled {
		t.Fatalf("sequential: err = %v", err)
	}
	if _, _, err := TopKBlockMaxShardedStats(ctx, idx, scorer, q, 10, 4); err != context.Canceled {
		t.Fatalf("sharded: err = %v", err)
	}
}
