package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"newslink"
	"newslink/internal/server"
)

type opKind int

const (
	opSearch opKind = iota
	opRelated
	opExplain
	opIngest
	numKinds
)

var kindNames = [numKinds]string{"search", "related", "explain", "ingest"}

const (
	topK = 10
	// explainPaths is the server's default paths= value.
	explainPaths = 5
	// zipfS and zipfV shape query and related-document popularity,
	// P(rank k) ∝ (zipfV + k)^-zipfS: over 2000 texts the 64 most popular
	// (the engine's query-cache size) take about a third of the requests,
	// so caches see realistic repeats, while no handful of texts decides
	// a run's latency (a steeper head made it depend on the seed).
	zipfS = 1.1
	zipfV = 20
)

// recorder accumulates one actor's (client's or writer's) outcomes.
type recorder struct {
	lat       [numKinds][]time.Duration // operations started inside the window
	all       [numKinds]time.Duration   // summed latency of every operation
	allN      [numKinds]int
	late      []time.Duration // open-loop send lateness
	acked     int             // writes acknowledged inside the window
	attempted int
	failed    int
	refused   int // 429/503 replies
	errs      []string
	// cluster replies
	shardsOK, shardsTotal int
	// traced-run twin sums (cluster): single-process engine time for the
	// same queries the router answered.
	twin time.Duration
}

func (r *recorder) fail(kind opKind, err error) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", kindNames[kind], err))
	}
}

func (r *recorder) merge(o *recorder) {
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
		r.all[k] += o.all[k]
		r.allN[k] += o.allN[k]
	}
	r.late = append(r.late, o.late...)
	r.acked += o.acked
	r.attempted += o.attempted
	r.failed += o.failed
	r.refused += o.refused
	for _, e := range o.errs {
		if len(r.errs) < 8 {
			r.errs = append(r.errs, e)
		}
	}
	r.shardsOK += o.shardsOK
	r.shardsTotal += o.shardsTotal
	r.twin += o.twin
}

// schedule is the run's time line: warm-up, then the measured window.
type schedule struct {
	windowStart, windowEnd time.Time
}

func (s schedule) inWindow(t time.Time) bool {
	return !t.Before(s.windowStart) && t.Before(s.windowEnd)
}

// loadGen issues the workload's operations against a set-up system.
type loadGen struct {
	w      *workload
	in     *inputs
	sys    *system
	client *http.Client
	valid  *validator
	tr     *tracer                   // nil in untraced runs
	byID   map[int]newslink.Document // the corpus by ID

	partialNext atomic.Int64
}

// errStatus is a reply with an unexpected HTTP status.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.body) }

func refused(err error) bool {
	se, ok := err.(*errStatus)
	return ok && (se.code == http.StatusTooManyRequests || se.code == http.StatusServiceUnavailable)
}

// do sends one request and decodes a reply with the wanted status.
func (d *loadGen) do(req *http.Request, want int, out any) error {
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		if len(body) > 200 {
			body = body[:200]
		}
		return &errStatus{resp.StatusCode, string(bytes.TrimSpace(body))}
	}
	return json.Unmarshal(body, out)
}

func (d *loadGen) get(path string, out any) error {
	req, err := http.NewRequest(http.MethodGet, d.sys.baseURL+path, nil)
	if err != nil {
		return err
	}
	return d.do(req, http.StatusOK, out)
}

func searchPath(q kwQuery) string {
	p := "/v1/search?k=" + strconv.Itoa(topK) + "&q=" + url.QueryEscape(q.Text)
	if q.After != 0 {
		p += "&after=" + strconv.FormatInt(q.After, 10)
	}
	if q.Entity != "" {
		p += "&entity=" + url.QueryEscape(q.Entity)
	}
	return p
}

func (q kwQuery) engineQuery() newslink.Query {
	nq := newslink.Query{Text: q.Text, K: topK, After: q.After}
	if q.Entity != "" {
		nq.Entities = []string{q.Entity}
	}
	return nq
}

// searchHTTP runs one search through the HTTP edge. It rejects degraded
// and partial replies; the caller validates the ranking with
// d.valid.search, after it has taken the latency.
func (d *loadGen) searchHTTP(q kwQuery, rec *recorder) ([]newslink.Result, error) {
	var resp server.SearchResponse
	if err := d.get(searchPath(q), &resp); err != nil {
		return nil, err
	}
	if resp.Degraded {
		return nil, fmt.Errorf("degraded reply (%s)", resp.DegradedReason)
	}
	if d.w.cluster {
		rec.shardsOK += resp.ShardsOK
		rec.shardsTotal += resp.ShardsTotal
		if resp.ShardsOK != resp.ShardsTotal {
			return nil, fmt.Errorf("partial reply: %d of %d shards", resp.ShardsOK, resp.ShardsTotal)
		}
	}
	return resp.Results, nil
}

// relatedHTTP runs one related-news request through the HTTP edge; the
// caller validates the ranking with d.valid.related.
func (d *loadGen) relatedHTTP(id int) ([]newslink.Result, error) {
	var resp server.RelatedResponse
	if err := d.get("/v1/related/"+strconv.Itoa(id)+"?k="+strconv.Itoa(topK), &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

func (d *loadGen) explainHTTP(q string, id int) error {
	var resp server.ExplainResponse
	if err := d.get("/v1/explain?q="+url.QueryEscape(q)+"&id="+strconv.Itoa(id)+"&paths="+strconv.Itoa(explainPaths), &resp); err != nil {
		return err
	}
	if resp.DocID != id {
		return fmt.Errorf("explain of doc %d answered for doc %d", id, resp.DocID)
	}
	if len(resp.Explanation.Paths) > explainPaths {
		return fmt.Errorf("explain returned %d paths, asked for %d", len(resp.Explanation.Paths), explainPaths)
	}
	return nil
}

func (d *loadGen) ingestHTTP(doc newslink.Document) error {
	body, err := json.Marshal(server.DocPayload{ID: &doc.ID, Title: doc.Title, Text: doc.Text, Time: doc.Time})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, d.sys.baseURL+"/v1/docs:stream", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var resp server.DocResponse
	if err := d.do(req, http.StatusAccepted, &resp); err != nil {
		return err
	}
	if resp.ID != doc.ID || resp.Op != "ingest" {
		return fmt.Errorf("ingest of doc %d acknowledged as %+v", doc.ID, resp)
	}
	return nil
}

// client is one closed-loop caller: it sends its next request only after
// the previous reply arrived.
type client struct {
	rng    *rand.Rand
	kwZipf *rand.Zipf
	idZipf *rand.Zipf
	// the last search, for explain requests on a document it returned
	lastQuery kwQuery
	lastIDs   []int
	ops       int
}

func (d *loadGen) newClient(id int) *client {
	rng := rand.New(rand.NewSource(d.in.Seed*7919 + int64(id)))
	return &client{
		rng:    rng,
		kwZipf: rand.NewZipf(rng, zipfS, zipfV, uint64(len(d.in.Keyword)-1)),
		idZipf: rand.NewZipf(rng, zipfS, zipfV, uint64(len(d.in.RelatedIDs)-1)),
	}
}

// nextKind draws the operation mix: 70% search, 20% related, 10% explain
// of a document the client's previous search returned.
func (d *loadGen) nextKind(c *client) opKind {
	if !d.w.mix {
		return opSearch
	}
	switch r := c.rng.Float64(); {
	case r < 0.7:
		return opSearch
	case r < 0.9:
		return opRelated
	case len(c.lastIDs) > 0:
		return opExplain
	}
	return opSearch
}

// closedLoop runs client c until the schedule ends.
func (d *loadGen) closedLoop(c *client, sch schedule, rec *recorder) {
	for {
		start := time.Now()
		if !start.Before(sch.windowEnd) {
			return
		}
		kind := d.nextKind(c)
		traced := d.tr != nil && c.ops%traceEvery == 0
		c.ops++
		var err error
		var dur time.Duration
		switch {
		case d.w.partial:
			i := int(d.partialNext.Add(1)) - 1
			if i >= len(d.in.Partial) {
				rec.fail(kind, fmt.Errorf("partial-query stream exhausted after %d queries", i))
				return
			}
			q := d.in.Partial[i]
			if traced {
				dur, err = d.tracedPartial(q)
			} else {
				var res []newslink.Result
				res, err = d.sys.engine.SearchContext(context.Background(), newslink.Query{Text: q.Text, K: topK})
				dur = time.Since(start)
				if err == nil {
					err = d.valid.search(res, topK, kwQuery{Text: q.Text})
				}
			}
		case kind == opSearch:
			q := d.in.Keyword[c.kwZipf.Uint64()]
			var res []newslink.Result
			if traced {
				res, dur, err = d.tracedSearch(q, rec)
			} else {
				res, err = d.searchHTTP(q, rec)
				dur = time.Since(start)
				if err == nil {
					err = d.valid.search(res, topK, q)
				}
				if d.tr != nil && d.w.cluster {
					// The cluster twin: the same query on the single-process
					// engine over the same snapshot, for cluster.self_us.
					t0 := time.Now()
					if _, terr := d.sys.engine.SearchContextFull(context.Background(), q.engineQuery()); terr != nil && err == nil {
						err = terr
					}
					rec.twin += time.Since(t0)
				}
			}
			if err == nil && len(res) > 0 {
				c.lastQuery = q
				c.lastIDs = c.lastIDs[:0]
				for _, r := range res {
					c.lastIDs = append(c.lastIDs, r.ID)
				}
			}
		case kind == opRelated:
			id := d.in.RelatedIDs[c.idZipf.Uint64()]
			if traced {
				dur, err = d.tracedRelated(id)
			} else {
				var res []newslink.Result
				res, err = d.relatedHTTP(id)
				dur = time.Since(start)
				if err == nil {
					err = d.valid.related(res, topK, id)
				}
			}
		case kind == opExplain:
			id := c.lastIDs[c.rng.Intn(len(c.lastIDs))]
			if traced {
				dur, err = d.tracedExplain(c.lastQuery.Text, id)
			} else {
				err = d.explainHTTP(c.lastQuery.Text, id)
				dur = time.Since(start)
			}
		}
		rec.attempted++
		if err != nil {
			if refused(err) {
				rec.refused++
			}
			rec.fail(kind, err)
			continue
		}
		rec.all[kind] += dur
		rec.allN[kind]++
		if !traced && sch.inWindow(start) {
			rec.lat[kind] = append(rec.lat[kind], dur)
		}
	}
}

// maxLate is how far past the window's end the open-loop writer may still
// be sending documents due inside it; a writer further behind has a
// growing backlog. Untraced runs stay within tens of milliseconds of the
// schedule; the extra work of a traced run has delayed sends by 0.7 s.
const maxLate = 5 * time.Second

// openLoopWriter posts the ingest stream at ingestRate documents per
// second on a fixed schedule that does not wait for replies. Latency runs
// from each document's due time, so a stall also charges the documents
// queued behind it; late records how far behind schedule each send was.
func (d *loadGen) openLoopWriter(t0 time.Time, sch schedule, rec *recorder) {
	interval := time.Second / ingestRate
	for i := 0; i < len(d.in.Stream); i++ {
		due := t0.Add(time.Duration(i) * interval)
		if !due.Before(sch.windowEnd) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		if sent.After(sch.windowEnd.Add(maxLate)) {
			// Still behind schedule well past the window's end: the
			// documents due inside it that were never sent count as
			// failed writes.
			missed := int((sch.windowEnd.Sub(due) + interval - 1) / interval)
			rec.attempted += missed
			rec.failed += missed - 1
			rec.fail(opIngest, fmt.Errorf("writer fell behind: %d documents due in the window were never sent", missed))
			return
		}
		doc := d.in.Stream[i]
		rec.attempted++
		err := d.ingestHTTP(doc)
		dur := time.Since(due)
		if err != nil {
			if refused(err) {
				rec.refused++
			}
			rec.fail(opIngest, err)
			continue
		}
		rec.all[opIngest] += dur
		rec.allN[opIngest]++
		if sch.inWindow(due.Add(dur)) {
			rec.acked++
		}
		if sch.inWindow(due) {
			rec.lat[opIngest] = append(rec.lat[opIngest], dur)
			rec.late = append(rec.late, sent.Sub(due))
		}
		if d.tr != nil && i%docTraceEvery == 0 {
			d.tr.sampleDoc(doc)
		}
	}
	rec.fail(opIngest, fmt.Errorf("ingest stream exhausted after %d documents", len(d.in.Stream)))
}
