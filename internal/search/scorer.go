// Package search implements the query-processing half of the NS component
// (Section VI): BM25 scoring over an inverted index (as in the paper's
// Lucene setup), block-max top-k retrieval with an exhaustive reference,
// and the BOW/BON score fusion of Equation 3.
package search

import (
	"math"

	"newslink/internal/index"
)

// Scorer computes a per-term, per-document partial score. Implementations
// must be pure functions of their arguments so evaluation strategies can
// reorder term processing freely.
type Scorer interface {
	// Weight returns the contribution of one matched term occurrence.
	// tf is the term frequency in the document, df the term's document
	// frequency, docLen the document length.
	Weight(tf float64, df int, docLen float64) float64
	// MaxWeight returns an upper bound of Weight over all documents in the
	// postings list, used by block-max pruning.
	MaxWeight(maxTF float64, df int) float64
}

// BM25 is the probabilistic relevance scorer used by the paper's Lucene
// baseline and by NewsLink's NS component (Robertson & Zaragoza; Lucene
// defaults k1=1.2, b=0.75).
type BM25 struct {
	K1, B  float64
	N      int     // corpus size
	AvgLen float64 // average document length
}

// NewBM25 returns a BM25 scorer with Lucene's default parameters for the
// given index.
func NewBM25(idx index.Source) BM25 {
	return BM25{K1: 1.2, B: 0.75, N: idx.NumDocs(), AvgLen: idx.AvgDocLen()}
}

// idf is Lucene's BM25 idf: ln(1 + (N-df+0.5)/(df+0.5)), always positive.
func (s BM25) idf(df int) float64 {
	return math.Log(1 + (float64(s.N)-float64(df)+0.5)/(float64(df)+0.5))
}

// Weight implements Scorer.
func (s BM25) Weight(tf float64, df int, docLen float64) float64 {
	if tf <= 0 {
		return 0
	}
	norm := s.K1 * (1 - s.B + s.B*docLen/s.AvgLen)
	return s.idf(df) * tf * (s.K1 + 1) / (tf + norm)
}

// MaxWeight implements Scorer: tf*(k1+1)/(tf+k1*(1-b)) is increasing in tf
// and maximal at minimal length norm.
func (s BM25) MaxWeight(maxTF float64, df int) float64 {
	norm := s.K1 * (1 - s.B) // docLen -> 0 lower-bounds the length norm
	return s.idf(df) * maxTF * (s.K1 + 1) / (maxTF + norm)
}
