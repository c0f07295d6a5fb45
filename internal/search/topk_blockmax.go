package search

import (
	"cmp"
	"context"
	"math/bits"
	"slices"
	"strings"

	"newslink/internal/index"
)

// Block-Max MaxScore evaluation: the one top-k traversal.
//
// Terms are processed in decreasing score-bound order. Whole-list MaxScore
// (Turtle & Flood) stops admitting new documents once the suffix bound of
// the remaining terms drops below the running k-th score, but still decodes
// every posting. The block layout (internal/index) stores a summary (last
// doc ID, max TF) per 128-posting block, which yields a much tighter
// per-block upper bound: qw·MaxWeight(blockMaxTF, df) + suffixBound[i+1]. A
// block whose bound cannot reach the threshold and that contains no
// still-viable accumulated document is skipped without being decoded — on a
// DiskIndex its bytes are never read at all.
//
// The result is provably rank- and score-identical to TopK, the exhaustive
// reference — see DESIGN.md §10 for the safety argument; the short form: a
// document's first-appearance block is never skipped unless its total score
// is strictly below the final k-th score; an accumulated document is
// rescored (hasAcc forces the decode) until its partial score plus every
// remaining term bound falls strictly below the threshold, after which its
// total provably cannot reach the final k-th score either; and winners'
// scores are summed in the same canonical term order TopK uses, so the
// surviving top k is bitwise identical.

// bmTerm is one query term prepared for block-max evaluation. It carries no
// postings — only directory-level summaries — so preparation decodes
// nothing.
type bmTerm struct {
	term  string
	qw    float64
	df    int
	bound float64
}

// prepareBlockTerms orders the matching query terms by decreasing score
// bound (ties by term for determinism) using only cursor summaries. The
// second result is the total number of postings across the terms.
func prepareBlockTerms(idx index.Source, s Scorer, q Query) ([]bmTerm, int) {
	terms := make([]bmTerm, 0, len(q))
	total := 0
	for term, qw := range q {
		c := idx.TermCursor(term)
		if c == nil {
			continue
		}
		df := c.Count()
		maxTF := float64(c.MaxTF())
		index.ReleaseCursor(c)
		if df == 0 {
			continue
		}
		total += df
		terms = append(terms, bmTerm{term, qw, df, qw * s.MaxWeight(maxTF, df)})
	}
	if len(terms) == 0 {
		return nil, 0
	}
	sortBMTerms(terms)
	return terms, total
}

// sortBMTerms applies the canonical execution order: decreasing bound,
// ties by term for determinism.
func sortBMTerms(terms []bmTerm) {
	slices.SortFunc(terms, func(a, b bmTerm) int {
		if c := cmp.Compare(b.bound, a.bound); c != 0 {
			return c
		}
		return strings.Compare(a.term, b.term)
	})
}

// suffixBounds returns cumulative bound sums: out[i] = sum of bounds of
// terms[i:].
func suffixBounds(terms []bmTerm) []float64 {
	out := make([]float64, len(terms)+1)
	for i := len(terms) - 1; i >= 0; i-- {
		out[i] = out[i+1] + terms[i].bound
	}
	return out
}

// TopKBlockMaxStats evaluates the query sequentially with block-max
// pruning and reports retrieval statistics, including how many blocks the
// bound pruned without decoding. Unlike Postings-based traversal — where a
// disk read failure looks like an absent term — block decode/IO errors
// surface as errors, and a done ctx aborts the traversal with ctx.Err().
func TopKBlockMaxStats(ctx context.Context, idx index.Source, s Scorer, q Query, k int) ([]Hit, RetrievalStats, error) {
	return TopKBlockMaxShardedStats(ctx, idx, s, q, k, 1)
}

// TopKBlockMaxShardedStats is TopKBlockMaxStats with the document space
// split into up to `shards` contiguous DocID ranges, each running the
// block-max loop with its own cursors (cursors are single-owner; index
// sources are immutable, so any number may traverse concurrently). A
// document is scored by exactly one shard in the same term order, so the
// merged result equals the sequential one bit for bit. Stats are
// aggregated across shards; Stats.Shards is the fan-out actually used.
func TopKBlockMaxShardedStats(ctx context.Context, idx index.Source, s Scorer, q Query, k, shards int) ([]Hit, RetrievalStats, error) {
	var st RetrievalStats
	st.Shards = max(shards, 1)
	if k <= 0 || len(q) == 0 {
		return nil, st, ctx.Err()
	}
	terms, total := prepareBlockTerms(idx, s, q)
	if terms == nil {
		return nil, st, ctx.Err()
	}
	st.Terms = len(terms)
	st.Postings = total
	hits, fanST, err := blockMaxFanout(ctx, idx, s, terms, suffixBounds(terms), k, shards)
	if err != nil {
		return nil, st, err
	}
	st.add(fanST)
	st.Shards = fanST.Shards
	return hits, st, nil
}

// bmAcc is a dense score accumulator over one contiguous DocID range
// [lo, hi). Each blockMaxAccumulate call owns such a range (the whole
// index, or one shard), so plain array indexing replaces the map the
// TopK reference uses — the accumulator's memory is proportional to the range,
// comparable to the index's own per-document overhead, and every
// per-posting operation is O(1) without hashing. Two bitmaps ride along:
// seen marks documents with an accumulator entry; viable marks the subset
// that can still reach the top k, which is what the per-block skip
// decision consults.
//
// Accumulators are pooled across requests (scratch.go): obtain one with
// acquireBMAcc and return it with release once the winners are copied out.
// h is the request-owned top-k heap scratch shared by refresh and
// selectTop, recycled with the accumulator.
type bmAcc struct {
	lo     index.DocID
	score  []float64
	seen   []uint64
	viable []uint64
	n      int // number of seen documents
	h      hitHeap
}

func (a *bmAcc) isSeen(d index.DocID) bool {
	i := uint32(d - a.lo)
	return a.seen[i>>6]&(1<<(i&63)) != 0
}

// admit marks a newly seen document; new documents start viable.
func (a *bmAcc) admit(d index.DocID) {
	i := uint32(d - a.lo)
	a.seen[i>>6] |= 1 << (i & 63)
	a.viable[i>>6] |= 1 << (i & 63)
	a.n++
}

func (a *bmAcc) add(d index.DocID, w float64) {
	a.score[d-a.lo] += w
}

// anyViable reports whether any viable document lies in [from, to], both
// clamped to the accumulator's range.
func (a *bmAcc) anyViable(from, to index.DocID) bool {
	if to < a.lo || a.n == 0 {
		return false
	}
	lo := uint32(0)
	if from > a.lo {
		lo = uint32(from - a.lo)
	}
	hi := uint32(len(a.score)) - 1
	if t := uint32(to - a.lo); t < hi {
		hi = t
	}
	if lo > hi {
		return false
	}
	lw, hw := lo>>6, hi>>6
	loMask := ^uint64(0) << (lo & 63)
	hiMask := ^uint64(0) >> (63 - hi&63)
	if lw == hw {
		return a.viable[lw]&loMask&hiMask != 0
	}
	if a.viable[lw]&loMask != 0 || a.viable[hw]&hiMask != 0 {
		return true
	}
	for w := lw + 1; w < hw; w++ {
		if a.viable[w] != 0 {
			return true
		}
	}
	return false
}

// sweep drops documents whose partial score plus the remaining terms'
// bounds cannot reach min. The drop is permanent and safe: the threshold
// only rises and the suffix bound only shrinks, so non-viability is
// monotone, and a dropped document's accumulator entry — possibly left
// partial by later skipped blocks — stays strictly below the final k-th
// score, so it can neither enter the result nor displace a winner.
// Keeping the viable set small is what lets whole blocks of frequent
// terms skip even when the accumulator itself is large.
func (a *bmAcc) sweep(suffix, min float64) {
	for w, word := range a.viable {
		for word != 0 {
			b := word & (-word)
			word &^= b
			i := uint32(w)<<6 | uint32(bits.TrailingZeros64(b))
			if a.score[i]+suffix < min {
				a.viable[w] &^= b
			}
		}
	}
}

// refresh recomputes the k-th best score over all seen documents, reusing
// the accumulator's heap scratch so per-term refreshes allocate nothing
// once the heap has grown to k.
func (a *bmAcc) refresh(t *threshold, k int) {
	t.n = a.n
	if a.n < k {
		t.v = 0
		return
	}
	h := a.h[:0]
	a.forEachSeen(func(d index.DocID, s float64) {
		pushTop(&h, Hit{d, s}, k)
	})
	a.h = h
	if len(h) == k {
		t.v = h[0].Score
	}
}

func (a *bmAcc) forEachSeen(fn func(index.DocID, float64)) {
	for w, word := range a.seen {
		for word != 0 {
			b := word & (-word)
			word &^= b
			i := uint32(w)<<6 | uint32(bits.TrailingZeros64(b))
			fn(a.lo+index.DocID(i), a.score[i])
		}
	}
}

// selectTop extracts the k best hits, identically to selectTop on a map
// accumulator: same heap, same (score, DocID) tie-break. Only the returned
// slice is freshly allocated; the heap reuses the accumulator's scratch.
func (a *bmAcc) selectTop(k int) []Hit {
	h := a.h[:0]
	a.forEachSeen(func(d index.DocID, s float64) {
		pushTop(&h, Hit{d, s}, k)
	})
	out := make([]Hit, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		out[i] = h.pop()
	}
	a.h = h[:0]
	return out
}

// blockMaxAccumulate runs the block-max accumulation loop over prepared
// terms, optionally restricted to a DocID range (the sharded path). Per
// block it decides, from the summary alone, whether the block must be
// decoded: yes when it may contain a still-viable accumulated document
// (those must be rescored for exactness) or when its score upper bound
// can still lift a new document into the top k; otherwise the block is
// skipped undecoded.
func blockMaxAccumulate(ctx context.Context, idx index.Source, s Scorer, terms []bmTerm, suffixBound []float64, k int, rng *docRange) ([]Hit, RetrievalStats, error) {
	var st RetrievalStats
	live := liveMask(idx)
	lo, hi := index.DocID(0), index.DocID(idx.NumDocs())
	if rng != nil {
		lo, hi = rng.Lo, rng.Hi
	}
	if lo >= hi {
		return nil, st, ctx.Err()
	}
	acc := acquireBMAcc(lo, hi)
	defer acc.release()
	var th threshold // k-th best score so far
	th.init(k)
	sinceCheck := 0
	for i, t := range terms {
		if err := ctx.Err(); err != nil {
			return nil, st, err
		}
		// >= keeps tie-breaking exact: a new doc bounded at exactly the
		// current threshold could still win a tie on DocID.
		newDocsAllowed := suffixBound[i] >= th.min()
		if min := th.min(); min > 0 {
			acc.sweep(suffixBound[i], min)
		}
		cur := idx.TermCursor(t.term)
		if cur == nil {
			continue
		}
		var ok bool
		if lo > 0 {
			ok = cur.SeekBlock(lo)
		} else {
			ok = cur.NextBlock()
		}
		from := lo // blocks at or below from-1 have been accounted for
		for ; ok; ok = cur.NextBlock() {
			blockLast := cur.BlockLast()
			// Does the block's doc range cover any still-viable accumulated
			// document?
			hasAcc := acc.anyViable(from, blockLast)
			// Can a document first seen in this block still reach the top k?
			// Its score is at most this block's bound plus the remaining
			// terms' bounds.
			blockNewOK := newDocsAllowed &&
				t.qw*s.MaxWeight(float64(cur.BlockMaxTF()), t.df)+suffixBound[i+1] >= th.min()
			// Neither pruning reason requires the block's contents: skip it
			// undecoded. Its postings count toward neither Scored nor
			// Skipped — Postings − Scored − Skipped is the traffic the
			// block layout saved.
			if !hasAcc && !blockNewOK {
				st.BlocksSkipped++
				if !newDocsAllowed && !acc.anyViable(blockLast+1, hi-1) {
					// No viable docs remain above this block and the term
					// admits no new ones: the rest of the list cannot
					// contribute.
					break
				}
				if blockLast+1 >= hi {
					break
				}
				from = blockLast + 1
				continue
			}
			from = blockLast + 1
			pl, err := cur.Block()
			if err != nil {
				index.ReleaseCursor(cur)
				return nil, st, err
			}
			st.BlocksDecoded++
			if sinceCheck += len(pl); sinceCheck >= cancelCheckEvery {
				sinceCheck = 0
				if err := ctx.Err(); err != nil {
					index.ReleaseCursor(cur)
					return nil, st, err
				}
			}
			for _, p := range pl {
				if p.Doc < lo {
					continue
				}
				if p.Doc >= hi {
					break
				}
				// Tombstoned documents are dropped before the seen check:
				// never admitted, never scored, invisible to the threshold.
				if live != nil && !live.Live(p.Doc) {
					st.Skipped++
					continue
				}
				if !acc.isSeen(p.Doc) {
					if !blockNewOK {
						st.Skipped++
						continue
					}
					acc.admit(p.Doc)
				}
				st.Scored++
				acc.add(p.Doc, t.qw*s.Weight(float64(p.TF), t.df, idx.DocLen(p.Doc)))
			}
			if blockLast+1 >= hi {
				break
			}
		}
		index.ReleaseCursor(cur)
		acc.refresh(&th, k)
	}
	return acc.selectTop(k), st, nil
}
