package main

import (
	"context"
	"fmt"
	"math"
	"sync"

	"newslink"
	"newslink/internal/core"
	"newslink/internal/kg"
	"newslink/internal/nlp"
)

// validator checks every reply the workload receives against properties
// any correct NewsLink answer has. A reply that fails a check counts as a
// failed operation.
type validator struct {
	// times maps every document ID that may legitimately appear in a reply
	// (the corpus, and for ingest-serve the stream) to its Time.
	times map[int]int64
	// facet reports whether document id carries the entity facet label:
	// an entityOracle, which shares no code with the engine's filter, or,
	// during the load, a facetLog that defers the oracle's verdict.
	facet func(id int, label string) (bool, error)
}

func newValidator(in *inputs, facet func(int, string) (bool, error)) *validator {
	v := &validator{times: make(map[int]int64, len(in.Docs)+len(in.Stream)), facet: facet}
	for _, d := range in.Docs {
		v.times[d.ID] = d.Time
	}
	for _, d := range in.Stream {
		v.times[d.ID] = d.Time
	}
	return v
}

// analyzer builds the benchmark's own copies of the indexing components:
// an NLP pipeline over the graph's label index and a G* embedder with the
// engine's options (DefaultConfig plus the default per-group cache of 256
// entries), so a document analyzed here embeds as the engine indexed it.
func analyzer(g *kg.Graph) (*nlp.Pipeline, *core.Embedder) {
	cfg := newslink.DefaultConfig()
	return nlp.NewPipeline(g.Index()), core.NewEmbedder(g, core.Options{
		Model: cfg.Model, MaxDepth: cfg.MaxDepth, MaxExpansions: cfg.MaxExpansions, GroupCacheSize: 256,
	})
}

// entityOracle decides entity facets without the engine: a document
// carries a label when a KG node the folded label resolves to (the
// graph's own label index) is among the nodes of the document's G*
// embedding, computed here from the document's text. The engine's
// compiled filter (label terms, node postings, allowlist bitmaps) is not
// consulted, so a fault there shows as a reply this oracle rejects.
type entityOracle struct {
	g    *kg.Graph
	pipe *nlp.Pipeline
	emb  *core.Embedder
	text map[int]string

	mu    sync.Mutex
	nodes map[int]map[kg.NodeID]int // embeddings already computed, by doc ID
}

func newEntityOracle(in *inputs) *entityOracle {
	o := &entityOracle{g: in.World.Graph, text: make(map[int]string, len(in.Docs)+len(in.Stream)),
		nodes: map[int]map[kg.NodeID]int{}}
	o.pipe, o.emb = analyzer(o.g)
	for _, docs := range [][]newslink.Document{in.Docs, in.Stream} {
		for _, d := range docs {
			o.text[d.ID] = d.Text
		}
	}
	return o
}

func (o *entityOracle) carries(id int, label string) (bool, error) {
	o.mu.Lock()
	nodes, ok := o.nodes[id]
	o.mu.Unlock()
	if !ok {
		text, known := o.text[id]
		if !known {
			return false, fmt.Errorf("doc %d is not in the inputs", id)
		}
		groups := nlp.MaximalSets(o.pipe.Process(text).EntityGroups())
		emb, _, err := o.emb.EmbedGroupsContext(context.Background(), groups)
		if err != nil {
			return false, err
		}
		if emb != nil {
			nodes = emb.Counts
		}
		o.mu.Lock()
		o.nodes[id] = nodes
		o.mu.Unlock()
	}
	for _, n := range o.g.Lookup(kg.Fold(label)) {
		if _, ok := nodes[n]; ok {
			return true, nil
		}
	}
	return false, nil
}

// facetLog defers entity-facet checks out of the measured load: during
// the run it records every (document, label) pair a reply asserted and
// lets the reply pass, and verify then checks each pair once against the
// oracle after the window, so the oracle's cost (a document analysis per
// new document) lands in no measurement.
type facetLog struct {
	mu    sync.Mutex
	pairs map[facetPair]bool
}

type facetPair struct {
	id    int
	label string
}

func (f *facetLog) note(id int, label string) (bool, error) {
	f.mu.Lock()
	if f.pairs == nil {
		f.pairs = map[facetPair]bool{}
	}
	f.pairs[facetPair{id, label}] = true
	f.mu.Unlock()
	return true, nil
}

// verify checks every recorded pair with carries and returns one error
// per pair that fails.
func (f *facetLog) verify(carries func(int, string) (bool, error)) []error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var errs []error
	for p := range f.pairs {
		ok, err := carries(p.id, p.label)
		if err == nil && !ok {
			err = fmt.Errorf("doc %d lacks the facet entity %q", p.id, p.label)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("facet check: %w", err))
		}
	}
	return errs
}

// minFusedTop bounds the top score of a non-empty fused ranking from below:
// Equation 3 adds (1-β)·BOW and β·BON, each max-normalized, so the top
// document of either leg scores at least min(β, 1-β) = 0.2 at β = 0.2.
// Only a single-leg ranking (related news: pure BON) must top out at 1.
const minFusedTop = 0.2

// ranking checks what every ranked reply must satisfy: at most k results,
// scores in (0,1] that never increase down the list, a top score of 1 for
// single-leg rankings (at least minFusedTop for fused ones), and unique
// IDs that all belong to the corpus.
func (v *validator) ranking(res []newslink.Result, k int, fused bool) error {
	if len(res) > k {
		return fmt.Errorf("%d results for k=%d", len(res), k)
	}
	seen := make(map[int]bool, len(res))
	for i, r := range res {
		if !(r.Score > 0 && r.Score <= 1) || math.IsNaN(r.Score) {
			return fmt.Errorf("result %d (doc %d): score %v outside (0,1]", i, r.ID, r.Score)
		}
		if i > 0 && r.Score > res[i-1].Score {
			return fmt.Errorf("result %d (doc %d): score %v above the previous %v", i, r.ID, r.Score, res[i-1].Score)
		}
		if seen[r.ID] {
			return fmt.Errorf("duplicate doc %d", r.ID)
		}
		seen[r.ID] = true
		if _, ok := v.times[r.ID]; !ok {
			return fmt.Errorf("doc %d is not in the corpus", r.ID)
		}
	}
	if len(res) > 0 {
		if top := res[0].Score; !fused && top != 1 {
			return fmt.Errorf("top score %v, want 1", top)
		} else if fused && top < minFusedTop {
			return fmt.Errorf("top score %v below %v", top, minFusedTop)
		}
	}
	return nil
}

// search checks a search reply, including its filter: every result of an
// after= query lies in the window, every result of an entity= query
// carries the entity.
func (v *validator) search(res []newslink.Result, k int, q kwQuery) error {
	if err := v.ranking(res, k, true); err != nil {
		return err
	}
	for _, r := range res {
		if q.After != 0 && v.times[r.ID] < q.After {
			return fmt.Errorf("doc %d (time %d) outside the after=%d window", r.ID, v.times[r.ID], q.After)
		}
		if q.Entity != "" {
			ok, err := v.facet(r.ID, q.Entity)
			if err != nil {
				return fmt.Errorf("facet check of doc %d: %w", r.ID, err)
			}
			if !ok {
				return fmt.Errorf("doc %d lacks the facet entity %q", r.ID, q.Entity)
			}
		}
	}
	return nil
}

// related checks a related-news reply: a pure-BON ranking that never
// contains its source document.
func (v *validator) related(res []newslink.Result, k, src int) error {
	if err := v.ranking(res, k, false); err != nil {
		return err
	}
	for _, r := range res {
		if r.ID == src {
			return fmt.Errorf("related news of doc %d returned the doc itself", src)
		}
	}
	return nil
}

// sameResults reports the first difference between two rankings, which
// must agree on every field: ID, title, score (bit for bit) and snippet.
func sameResults(got, want []newslink.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("result %d: got {%d %v}, want {%d %v}", i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
	return nil
}
