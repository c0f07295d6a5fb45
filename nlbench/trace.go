package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"newslink"
	"newslink/internal/core"
	"newslink/internal/index"
	"newslink/internal/nlp"
	"newslink/internal/search"
	"newslink/internal/wal"
)

// traceEvery samples one operation in traceEvery per client for the traced
// composition; the rest run exactly as in an untraced run.
const traceEvery = 4

// docTraceEvery samples one ingested document in docTraceEvery for the
// write-path probes, whose fsyncs share the disk with the engine's WAL.
const docTraceEvery = 16

// span is one timed call into a layer. Spans of one traced operation share
// Req; Parent is the ID of the enclosing span within that operation (-1 for
// the root). Times are nanoseconds since the run started.
type span struct {
	Req    int64            `json:"req"`
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span belongs to: its name up to the first dot.
func (s *span) layer() string { return s.Name[:strings.IndexByte(s.Name, '.')] }

// tracer keeps the spans of every traced operation in memory until the run
// ends, and owns the benchmark's own copies of the layers it times
// directly: an NLP pipeline and a G* embedder with the engine's options,
// and, on ingest-serve, a write-ahead log beside the engine's.
type tracer struct {
	t0      time.Time
	nextReq atomic.Int64
	pipe    *nlp.Pipeline
	emb     *core.Embedder
	log     *wal.Log // nil unless the workload writes

	mu   sync.Mutex
	ops  []*opTrace
	docs chan newslink.Document
	done chan struct{}

	// extraHits counts the engine query-cache hits the traced composition
	// adds on top of the served traffic (a served call after the composed
	// one analyzes the same text again), so the hit ratio can exclude them.
	extraHits atomic.Int64
	// identity outcomes of composed rankings against served replies
	identityOK, identitySkipped atomic.Int64
	docsDropped                 atomic.Int64
}

func newTracer(in *inputs, walDir string) (*tracer, error) {
	tr := &tracer{t0: time.Now()}
	tr.pipe, tr.emb = analyzer(in.World.Graph)
	if walDir != "" {
		l, err := wal.Open(walDir, wal.Options{})
		if err != nil {
			return nil, fmt.Errorf("opening the benchmark's WAL: %w", err)
		}
		tr.log = l
		// Sampled ingest documents wait here for the write-path probes;
		// when the probe falls behind the writer, samples are dropped
		// rather than stalling the open-loop schedule.
		tr.docs = make(chan newslink.Document, 64)
		tr.done = make(chan struct{})
		go tr.writeProbes()
	}
	return tr, nil
}

// close stops the write-path probe goroutine and the benchmark's WAL.
func (tr *tracer) close() error {
	if tr.log == nil {
		return nil
	}
	close(tr.docs)
	<-tr.done
	return tr.log.Close()
}

// opTrace is the span list of one traced operation.
type opTrace struct {
	tr    *tracer
	kind  string
	req   int64
	spans []span
}

func (tr *tracer) begin(kind string) *opTrace {
	ot := &opTrace{tr: tr, kind: kind, req: tr.nextReq.Add(1)}
	ot.start("bench."+kind, -1)
	return ot
}

func (tr *tracer) since(t time.Time) int64 { return int64(t.Sub(tr.t0)) }

func (ot *opTrace) start(name string, parent int) int {
	id := len(ot.spans)
	ot.spans = append(ot.spans, span{Req: ot.req, ID: id, Parent: parent, Name: name, Start: ot.tr.since(time.Now())})
	return id
}

// end closes span id; attrs are name/value pairs.
func (ot *opTrace) end(id int, attrs ...any) {
	s := &ot.spans[id]
	s.End = ot.tr.since(time.Now())
	for i := 0; i+1 < len(attrs); i += 2 {
		if s.Attrs == nil {
			s.Attrs = make(map[string]int64)
		}
		s.Attrs[attrs[i].(string)] = int64(attrs[i+1].(int))
	}
}

// add records a span timed elsewhere (a concurrent retrieval leg).
func (ot *opTrace) add(name string, parent int, start, end time.Time, attrs ...any) {
	id := len(ot.spans)
	ot.spans = append(ot.spans, span{Req: ot.req, ID: id, Parent: parent, Name: name, Start: ot.tr.since(start)})
	ot.end(id, attrs...)
	ot.spans[id].End = ot.tr.since(end)
}

// finish closes the root span and hands the operation to the tracer.
func (ot *opTrace) finish() time.Duration {
	ot.end(0)
	ot.tr.mu.Lock()
	ot.tr.ops = append(ot.tr.ops, ot)
	ot.tr.mu.Unlock()
	return ot.spans[0].dur()
}

// shardedSearchMinDocs mirrors the engine's rule for sharding a postings
// traversal (newslink.topKAuto): past this many documents, with more than
// one CPU, each retrieval leg fans out over GOMAXPROCS workers.
const shardedSearchMinDocs = 4096

func topKAuto(ctx context.Context, idx index.Source, s search.Scorer, q search.Query, k int) ([]search.Hit, search.RetrievalStats, error) {
	if workers := runtime.GOMAXPROCS(0); workers > 1 && idx.NumDocs() >= shardedSearchMinDocs {
		return search.TopKBlockMaxShardedStats(ctx, idx, s, q, k, workers)
	}
	return search.TopKBlockMaxStats(ctx, idx, s, q, k)
}

// bonScorer is the engine's BM25 setting for the node index: no length
// normalization and fast saturation.
func bonScorer(node index.Source) search.BM25 {
	s := search.NewBM25(node)
	s.B = 0
	s.K1 = 0.4
	return s
}

func statAttrs(st search.RetrievalStats) []any {
	return []any{"scored", st.Scored, "blocks_decoded", st.BlocksDecoded, "blocks_skipped", st.BlocksSkipped, "shards", st.Shards}
}

// composeSearch runs one search as the composition of the layers' public
// calls, mirroring the engine's searchContext: analysis, the BOW and BON
// block-max legs run concurrently, Equation 3 fusion, then result
// materialization. Its ranking must equal the engine's for the same query.
func (ot *opTrace) composeSearch(e *newslink.Engine, q newslink.Query) ([]newslink.Result, error) {
	ctx := context.Background()
	cfg := newslink.DefaultConfig()
	root := ot.start("newslink.search", 0)
	defer ot.end(root)

	a := ot.start("newslink.analyze", root)
	terms, nodeW, err := e.AnalyzeQuery(ctx, q.Text)
	ot.end(a, "terms", len(terms))
	if err != nil {
		return nil, err
	}
	var text, node index.Source
	if q.After != 0 || q.Before != 0 || len(q.Entities) > 0 {
		text, node, err = e.FilteredSources(q.After, q.Before, e.EntityTerms(q.Entities))
	} else {
		text, node, err = e.Sources()
	}
	if err != nil {
		return nil, err
	}
	pool := max(cfg.PoolDepth, q.K)
	if n := e.NumDocs(); pool > n {
		pool = n
	}

	ret := ot.start("search.retrieve", root)
	var bon []search.Hit
	var bonSt search.RetrievalStats
	var bonErr error
	var bonStart, bonEnd time.Time
	var wg sync.WaitGroup
	runBON := cfg.Beta > 0 && nodeW != nil
	if runBON {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bonStart = time.Now()
			bon, bonSt, bonErr = topKAuto(ctx, node, bonScorer(node), search.Query(nodeW), pool)
			bonEnd = time.Now()
		}()
	}
	bowStart := time.Now()
	bow, bowSt, bowErr := topKAuto(ctx, text, search.NewBM25(text), search.NewQuery(terms), pool)
	bowEnd := time.Now()
	wg.Wait()
	ot.add("search.bow", ret, bowStart, bowEnd, statAttrs(bowSt)...)
	if runBON {
		ot.add("search.bon", ret, bonStart, bonEnd, statAttrs(bonSt)...)
	}
	ot.end(ret)
	if bowErr != nil {
		return nil, bowErr
	}
	if bonErr != nil {
		return nil, bonErr
	}

	f := ot.start("search.fuse", root)
	fused := search.Fuse(bow, bon, cfg.Beta, q.K)
	ot.end(f)

	m := ot.start("newslink.materialize", root)
	out := make([]newslink.Result, len(fused))
	scanned := 0
	for i, h := range fused {
		doc, err := e.DocAt(int(h.Doc))
		if err != nil {
			return nil, err
		}
		scanned += len(doc.Text)
		out[i] = newslink.Result{ID: doc.ID, Title: doc.Title, Score: h.Score, Snippet: newslink.Snippet(doc.Text, terms)}
	}
	ot.end(m, "bytes", scanned, "k", len(out))
	return out, nil
}

// queryLayers times the query's NLP pass and G* embedding on the
// benchmark's own pipeline and embedder (engine options), so nlp and core
// cost is visible even when the engine served the analysis from a cache.
func (ot *opTrace) queryLayers(text, suffix string) *core.DocEmbedding {
	p := ot.start("nlp.process"+suffix, 0)
	doc := ot.tr.pipe.Process(text)
	ot.end(p)
	groups := nlp.MaximalSets(doc.EntityGroups())
	c := ot.start("core.embed"+suffix, 0)
	// The only error EmbedGroupsContext returns is its context's, and
	// this one is never cancelled.
	emb, st, _ := ot.tr.emb.EmbedGroupsContext(context.Background(), groups)
	ot.end(c, "groups", st.Groups, "expansions", st.Expansions)
	return emb
}

// engineState is what must not change between a composed ranking and the
// served reply it is compared with: under concurrent ingestion a refresh
// in between legitimately changes BM25 statistics.
func engineState(e *newslink.Engine) [2]int64 {
	return [2]int64{int64(e.NumDocs()), e.Metrics().Counter("newslink_refreshes_total", "").Value()}
}

func (tr *tracer) identity(before, after [2]int64, composed, served []newslink.Result, what string) error {
	if before != after {
		tr.identitySkipped.Add(1)
		return nil
	}
	if err := sameResults(composed, served); err != nil {
		return fmt.Errorf("composed %s ranking differs from the served one: %w", what, err)
	}
	tr.identityOK.Add(1)
	return nil
}

// tracedSearch is one sampled search: the composed pipeline (run first, so
// its analysis meets the caches as a served request would), the query's
// NLP and G* cost, and the served request itself. On cluster-search the
// router answers first, then the single-process engine over the same
// snapshot, then the composition on that engine.
func (d *loadGen) tracedSearch(q kwQuery, rec *recorder) ([]newslink.Result, time.Duration, error) {
	ot := d.tr.begin("search")
	e := d.sys.engine
	var composed, res []newslink.Result
	var dur time.Duration
	var err, cerr error
	before := engineState(e)
	if d.w.cluster {
		h := ot.start("cluster.router", 0)
		res, err = d.searchHTTP(q, rec)
		ot.end(h)
		dur = ot.spans[h].dur()
		s := ot.start("cluster.single", 0)
		if _, serr := e.SearchContextFull(context.Background(), q.engineQuery()); serr != nil && err == nil {
			err = serr
		}
		ot.end(s)
		rec.twin += ot.spans[s].dur()
		composed, cerr = ot.composeSearch(e, q.engineQuery())
		ot.queryLayers(q.Text, "")
	} else {
		composed, cerr = ot.composeSearch(e, q.engineQuery())
		ot.queryLayers(q.Text, "")
		h := ot.start("server.http", 0)
		res, err = d.searchHTTP(q, rec)
		ot.end(h)
		dur = ot.spans[h].dur()
		d.tr.extraHits.Add(1)
	}
	after := engineState(e)
	ot.finish()
	if err != nil {
		return nil, dur, err
	}
	if cerr != nil {
		return nil, dur, fmt.Errorf("composed search: %w", cerr)
	}
	if err := d.valid.search(res, topK, q); err != nil {
		return nil, dur, err
	}
	return res, dur, d.tr.identity(before, after, composed, res, "search")
}

// tracedPartial is one sampled partial query: the composed pipeline as the
// served request, checked against Engine.SearchContext afterwards.
func (d *loadGen) tracedPartial(q partialQuery) (time.Duration, error) {
	ot := d.tr.begin("search")
	e := d.sys.engine
	composed, cerr := ot.composeSearch(e, newslink.Query{Text: q.Text, K: topK})
	ot.queryLayers(q.Text, "")
	dur := ot.finish()
	if cerr != nil {
		return dur, fmt.Errorf("composed search: %w", cerr)
	}
	if err := d.valid.search(composed, topK, kwQuery{Text: q.Text}); err != nil {
		return dur, err
	}
	served, err := e.SearchContext(context.Background(), newslink.Query{Text: q.Text, K: topK})
	if err != nil {
		return dur, err
	}
	d.tr.extraHits.Add(1)
	return dur, d.tr.identity([2]int64{}, [2]int64{}, composed, served, "partial-query")
}

// tracedRelated is one sampled related-news request: the source document's
// embedding recomputed by the benchmark's pipeline and embedder (it equals
// the stored one: indexing runs the same components), the BON block-max
// leg over it with the source dropped, then the served request.
func (d *loadGen) tracedRelated(id int) (time.Duration, error) {
	ot := d.tr.begin("related")
	e := d.sys.engine
	before := engineState(e)
	emb := ot.queryLayers(d.byID[id].Text, "_doc")
	var composed []newslink.Result
	var cerr error
	if emb != nil && len(emb.Counts) > 0 {
		composed, cerr = ot.composeRelated(e, id, emb)
	}
	h := ot.start("server.http", 0)
	res, err := d.relatedHTTP(id)
	ot.end(h)
	dur := ot.spans[h].dur()
	after := engineState(e)
	ot.finish()
	if err != nil {
		return dur, err
	}
	if cerr != nil {
		return dur, fmt.Errorf("composed related: %w", cerr)
	}
	if err := d.valid.related(res, topK, id); err != nil {
		return dur, err
	}
	return dur, d.tr.identity(before, after, composed, res, "related")
}

func (ot *opTrace) composeRelated(e *newslink.Engine, id int, emb *core.DocEmbedding) ([]newslink.Result, error) {
	_, node, err := e.Sources()
	if err != nil {
		return nil, err
	}
	nq := make(search.Query, len(emb.Counts))
	for n, c := range emb.Counts {
		nq[newslink.NodeTerm(uint64(n))] = float64(c)
	}
	pool := max(newslink.DefaultConfig().PoolDepth, topK)
	if n := e.NumDocs(); pool > n {
		pool = n
	}
	b := ot.start("search.related_bon", 0)
	// One extra candidate stands in for the source document, which the
	// engine excludes by filter; scores do not depend on the filter.
	hits, st, err := topKAuto(context.Background(), node, bonScorer(node), nq, pool+1)
	ot.end(b, statAttrs(st)...)
	if err != nil {
		return nil, err
	}
	kept := hits[:0]
	for _, h := range hits {
		doc, err := e.DocAt(int(h.Doc))
		if err != nil {
			return nil, err
		}
		if doc.ID != id {
			kept = append(kept, h)
		}
	}
	if len(kept) > pool {
		kept = kept[:pool]
	}
	fused := search.Fuse(nil, kept, 1, topK)
	out := make([]newslink.Result, len(fused))
	for i, h := range fused {
		doc, err := e.DocAt(int(h.Doc))
		if err != nil {
			return nil, err
		}
		out[i] = newslink.Result{ID: doc.ID, Title: doc.Title, Score: h.Score}
	}
	return out, nil
}

// tracedExplain is one sampled explain: query analysis and the explain
// call in process (their difference is the relationship-path cost), then
// the served request.
func (d *loadGen) tracedExplain(q string, id int) (time.Duration, error) {
	ot := d.tr.begin("explain")
	e := d.sys.engine
	ctx := context.Background()
	a := ot.start("newslink.analyze", 0)
	_, _, aerr := e.AnalyzeQuery(ctx, q)
	ot.end(a)
	x := ot.start("newslink.explain", 0)
	_, xerr := e.ExplainContext(ctx, q, id, explainPaths)
	ot.end(x)
	h := ot.start("server.http", 0)
	err := d.explainHTTP(q, id)
	ot.end(h)
	dur := ot.spans[h].dur()
	ot.finish()
	d.tr.extraHits.Add(2)
	for _, e := range []error{err, aerr, xerr} {
		if e != nil {
			return dur, e
		}
	}
	return dur, nil
}

// sampleDoc hands an ingested document to the write-path probes without
// ever blocking the writer.
func (tr *tracer) sampleDoc(doc newslink.Document) {
	select {
	case tr.docs <- doc:
	default:
		tr.docsDropped.Add(1)
	}
}

// writeProbes times, for each sampled ingested document, the NLP pass the
// ingest applier runs on it and a durable append of a record of its size
// to the benchmark's own log in the same directory as the engine's WAL.
func (tr *tracer) writeProbes() {
	defer close(tr.done)
	for doc := range tr.docs {
		ot := tr.begin("ingest")
		p := ot.start("nlp.process_doc", 0)
		tr.pipe.Process(doc.Text)
		ot.end(p)
		w := ot.start("wal.sync", 0)
		pos, err := tr.log.Write(make([]byte, len(doc.Title)+len(doc.Text)+16))
		if err == nil {
			err = tr.log.WaitDurable(pos)
		}
		ot.end(w)
		ot.finish()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark WAL probe: %v\n", err)
			return
		}
	}
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(spans []span, id int) time.Duration {
	p := spans[id]
	var iv [][2]int64
	for _, s := range spans {
		if s.Parent == id {
			iv = append(iv, [2]int64{max(s.Start, p.Start), min(s.End, p.End)})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, hi := int64(0), p.Start
	for _, x := range iv {
		if x[1] <= hi {
			continue
		}
		lo := max(x[0], hi)
		covered += x[1] - lo
		hi = x[1]
	}
	return p.dur() - time.Duration(covered)
}

// writeSpans writes every span, one JSON object per line.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, ot := range tr.ops {
		for i := range ot.spans {
			if err := enc.Encode(&ot.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
