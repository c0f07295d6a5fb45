package search

import (
	"context"
	"sync"

	"newslink/internal/index"
)

// Distributed evaluation support.
//
// A scatter-gather router (internal/cluster) reproduces the exact top-k
// semantics of the in-process sharded paths over an RPC boundary. Per-doc
// scores are bitwise identical to single-process evaluation only if every
// shard accumulates terms in the same order with the same global BM25
// parameters and the same per-term bounds. The router therefore computes
// the canonical term order once — from globally aggregated TermSummary
// stats — and ships the ordered terms to every shard; shards execute them
// verbatim via TopKBlockMaxOrderedStats without re-deriving local stats.

// TermSummary is the directory-level summary of one term on one index
// source: document frequency (tombstoned documents included, matching
// Cursor.Count) and the maximum term frequency across its postings. A
// router sums DF and maxes MaxTF across shards to recover the exact
// global values prepareBlockTerms would see on the merged index.
type TermSummary struct {
	DF    int     `json:"df"`
	MaxTF float64 `json:"max_tf"`
}

// TermSummaries reads cursor summaries for the given terms. Terms absent
// from the index are omitted; nothing is decoded.
func TermSummaries(idx index.Source, terms []string) map[string]TermSummary {
	out := make(map[string]TermSummary, len(terms))
	for _, term := range terms {
		c := idx.TermCursor(term)
		if c == nil {
			continue
		}
		df, maxTF := c.Count(), float64(c.MaxTF())
		index.ReleaseCursor(c)
		if df == 0 {
			continue
		}
		out[term] = TermSummary{DF: df, MaxTF: maxTF}
	}
	return out
}

// OrderedTerm is one query term with globally computed evaluation
// parameters, in canonical execution order (decreasing Bound, ties by
// Term). DF and Bound are the global values; a shard uses them verbatim
// so its pruning decisions and per-posting weights match the merged
// index exactly.
type OrderedTerm struct {
	Term   string  `json:"term"`
	Weight float64 `json:"weight"`
	DF     int     `json:"df"`
	Bound  float64 `json:"bound"`
}

// OrderTerms computes the canonical block-max execution order from global
// term stats: bound = weight·MaxWeight(maxTF, df), sorted by decreasing
// bound with ties broken by term — exactly prepareBlockTerms' order over
// the merged index. Terms missing from stats are dropped (no postings
// anywhere). The second result is the total posting count.
func OrderTerms(s Scorer, q Query, stats map[string]TermSummary) ([]OrderedTerm, int) {
	bm := make([]bmTerm, 0, len(q))
	total := 0
	for term, qw := range q {
		ts, ok := stats[term]
		if !ok || ts.DF == 0 {
			continue
		}
		total += ts.DF
		bm = append(bm, bmTerm{term, qw, ts.DF, qw * s.MaxWeight(ts.MaxTF, ts.DF)})
	}
	if len(bm) == 0 {
		return nil, 0
	}
	sortBMTerms(bm)
	out := make([]OrderedTerm, len(bm))
	for i, t := range bm {
		out[i] = OrderedTerm{Term: t.term, Weight: t.qw, DF: t.df, Bound: t.bound}
	}
	return out, total
}

// TopKBlockMaxOrderedStats evaluates pre-ordered terms with block-max
// pruning, preserving the given order instead of re-deriving it from
// local cursors. The scorer must carry the global collection parameters
// (see BM25's exported fields). Shards fans the document space out as in
// TopKBlockMaxShardedStats; shards <= 1 runs sequentially.
func TopKBlockMaxOrderedStats(ctx context.Context, idx index.Source, s Scorer, ordered []OrderedTerm, k, shards int) ([]Hit, RetrievalStats, error) {
	var st RetrievalStats
	st.Shards = 1
	if k <= 0 || len(ordered) == 0 {
		return nil, st, ctx.Err()
	}
	terms := make([]bmTerm, len(ordered))
	for i, t := range ordered {
		terms[i] = bmTerm{t.Term, t.Weight, t.DF, t.Bound}
		st.Postings += t.DF
	}
	st.Terms = len(terms)
	hits, fanST, err := blockMaxFanout(ctx, idx, s, terms, suffixBounds(terms), k, shards)
	if err != nil {
		return nil, st, err
	}
	st.add(fanST)
	st.Shards = fanST.Shards
	return hits, st, nil
}

// blockMaxFanout splits the document space into contiguous ranges, runs
// blockMaxAccumulate per range and merges the partial top-k lists. It is
// shared by the in-process sharded path and the ordered (distributed)
// path; shards <= 1 degenerates to a single whole-range accumulation.
func blockMaxFanout(ctx context.Context, idx index.Source, s Scorer, terms []bmTerm, suffixBound []float64, k, shards int) ([]Hit, RetrievalStats, error) {
	numDocs := idx.NumDocs()
	if shards > numDocs {
		shards = numDocs
	}
	if shards <= 1 {
		hits, st, err := blockMaxAccumulate(ctx, idx, s, terms, suffixBound, k, nil)
		st.Shards = 1
		return hits, st, err
	}
	var st RetrievalStats
	st.Shards = shards
	perShard := make([][]Hit, shards)
	perShardStats := make([]RetrievalStats, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		lo := index.DocID(w * numDocs / shards)
		hi := index.DocID((w + 1) * numDocs / shards)
		wg.Add(1)
		go func(w int, lo, hi index.DocID) {
			defer wg.Done()
			perShard[w], perShardStats[w], errs[w] = blockMaxAccumulate(ctx, idx, s, terms, suffixBound, k, &docRange{Lo: lo, Hi: hi})
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, st, err
		}
	}
	for _, shardST := range perShardStats {
		st.add(shardST)
	}
	return MergeTopK(k, perShard...), st, nil
}

// MergeTopK merges pre-ranked hit lists into a global top k with the same
// comparator the per-shard selection used (score descending, ties by
// ascending Doc), so merging shard-local winners equals selecting over
// the union. Lists need not be sorted.
func MergeTopK(k int, lists ...[]Hit) []Hit {
	if k <= 0 {
		return nil
	}
	total := 0
	for _, hits := range lists {
		total += len(hits)
	}
	h := make(hitHeap, 0, min(k, total))
	for _, hits := range lists {
		for _, hit := range hits {
			pushTop(&h, hit, k)
		}
	}
	return drainHeap(h)
}
