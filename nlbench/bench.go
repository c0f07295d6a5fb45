package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"newslink"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is everything one run measured, written to .bench_out/ and
// printed on the line before the result.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Traced   bool           `json:"traced"`
	Host     map[string]any `json:"host"`
	Params   map[string]any `json:"params"`
	// All holds every metric measured, including those of other modes and
	// those that apply to this workload only.
	All      map[string]metric `json:"all_metrics"`
	Samples  map[string]int    `json:"samples"`
	Findings map[string]any    `json:"findings,omitempty"`
	Errors   []string          `json:"errors,omitempty"`
	SpanFile string            `json:"span_file,omitempty"`
	Result   result            `json:"result"`
}

// endToEnd and perLayer name the metrics each mode puts in its result;
// BENCHMARK.json lists the same names.
var endToEnd = []string{"setup_s", "heap_mb", "search_p50_ms", "recall_at_10"}

var perLayer = []string{
	"server.self_us", "server.shed",
	"cluster.self_us", "cluster.shards_ok_ratio",
	"newslink.self_us", "newslink.analyze_us", "newslink.query_cache_hit_ratio", "newslink.embed_cache_hit_ratio",
	"newslink.materialize_us", "newslink.materialize_bytes", "newslink.ingest_drain_ms", "newslink.segments", "newslink.merges",
	"nlp.self_us", "nlp.process_us", "nlp.process_doc_us",
	"core.self_us", "core.embed_us", "core.expansions", "core.paths_us",
	"search.self_us", "search.bow_us", "search.bon_us", "search.related_bon_us", "search.fuse_us",
	"search.postings_scored", "search.blocks_decoded", "search.blocks_skipped_ratio",
	"wal.self_us", "wal.sync_us",
	"runtime.alloc_bytes_per_op", "runtime.mallocs_per_op", "runtime.gc_cpu_fraction",
	"loadgen.late_ms", "trace.overhead_us",
}

// counters is a snapshot of the process and engine counters the metrics
// are deltas of.
type counters struct {
	mem                  runtime.MemStats
	gcCPU, totalCPU      float64
	queryHits, queryMiss int64
	embedHits, embedMiss int64
	merges               int64
	searchSecondsSum     float64
}

var cpuSamples = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}

func (d *loadGen) snapshot() counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	if d.w.cluster {
		// The router's analyzer engine is internal to it; its counters are
		// exported on the router's /v1/metrics.
		var m map[string]json.RawMessage
		if d.get("/v1/metrics", &m) == nil {
			num := func(name string) int64 {
				var v int64
				_ = json.Unmarshal(m[name], &v) // absent counters read as 0
				return v
			}
			c.queryHits, c.queryMiss = num("newslink_query_cache_hits_total"), num("newslink_query_cache_misses_total")
			c.embedHits, c.embedMiss = num("newslink_embed_cache_hits_total"), num("newslink_embed_cache_misses_total")
		}
		return c
	}
	reg := d.sys.engine.Metrics()
	c.queryHits = reg.Counter("newslink_query_cache_hits_total", "").Value()
	c.queryMiss = reg.Counter("newslink_query_cache_misses_total", "").Value()
	c.embedHits = reg.Counter("newslink_embed_cache_hits_total", "").Value()
	c.embedMiss = reg.Counter("newslink_embed_cache_misses_total", "").Value()
	c.merges = reg.Counter("newslink_segment_merges_total", "").Value()
	c.searchSecondsSum = reg.Histogram("newslink_search_seconds", "", nil).Sum()
	return c
}

func runBenchmark(cfg config, log io.Writer) (*record, error) {
	w := cfg.w
	genStart := time.Now()
	in := generate(cfg.seed, cfg.sizes)
	fmt.Fprintf(log, "nlbench: %s seed %d: generated %d docs, %d KG nodes in %v\n",
		w.name, cfg.seed, len(in.Docs), in.World.Graph.NumNodes(), time.Since(genStart).Round(time.Millisecond))
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.outDir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	// Set-up, several times; the last system serves the load.
	var sys *system
	var setups []float64
	var dir string
	for i := 0; i < cfg.setupReps; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
			os.RemoveAll(dir)
		}
		dir = filepath.Join(work, fmt.Sprintf("setup%d", i))
		runtime.GC()
		t0 := time.Now()
		sys, err = setUp(w, in, dir)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer sys.close()
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / (1 << 20)
	if w.cluster {
		// After the heap reading: the oracle is the benchmark's, not part
		// of the served system.
		if err := loadOracle(sys, in, dir); err != nil {
			return nil, fmt.Errorf("loading the single-process oracle: %w", err)
		}
	}

	d := &loadGen{w: w, in: in, sys: sys, byID: make(map[int]newslink.Document, len(in.Docs))}
	for _, doc := range in.Docs {
		d.byID[doc.ID] = doc
	}
	transport := &http.Transport{MaxIdleConnsPerHost: w.clients + 1, DisableCompression: true}
	defer transport.CloseIdleConnections()
	d.client = &http.Client{Transport: transport, Timeout: 2 * queryTimeout}
	e := sys.engine
	facets := &facetLog{}
	d.valid = newValidator(in, facets.note)
	if cfg.trace {
		walDir := ""
		if w.ingest {
			walDir = filepath.Join(dir, "bench-wal")
		}
		if d.tr, err = newTracer(in, walDir); err != nil {
			return nil, err
		}
	}

	// Load: warm-up, then the measured window.
	t0 := time.Now()
	sch := schedule{windowStart: t0.Add(cfg.warmup)}
	sch.windowEnd = sch.windowStart.Add(time.Duration(cfg.seconds) * time.Second)
	var before, atStart, atEnd counters
	before = d.snapshot()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(sch.windowStart))
		atStart = d.snapshot()
		time.Sleep(time.Until(sch.windowEnd))
		atEnd = d.snapshot()
	}()
	recs := make([]*recorder, w.clients+1)
	for i := 0; i < w.clients; i++ {
		recs[i] = &recorder{}
		c := d.newClient(i)
		wg.Add(1)
		go func(rec *recorder) {
			defer wg.Done()
			d.closedLoop(c, sch, rec)
		}(recs[i])
	}
	recs[w.clients] = &recorder{}
	if w.ingest {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.openLoopWriter(t0, sch, recs[w.clients])
		}()
	}
	wg.Wait()
	var drain time.Duration
	if w.ingest {
		t := time.Now()
		e.FlushIngest()
		drain = time.Since(t)
	}
	after := d.snapshot()
	rec := &recorder{}
	for _, r := range recs {
		rec.merge(r)
	}

	// Probes: recall over sentences no load request used, and served
	// replies against the in-process engine.
	recall := d.probe(rec)
	for _, err := range facets.verify(newEntityOracle(in).carries) {
		rec.fail(opSearch, err)
	}

	if d.tr != nil {
		if err := d.tr.close(); err != nil {
			return nil, err
		}
	}
	all := map[string]metric{
		"setup_s":      {median(setups), "s"},
		"heap_mb":      {heapMB, "MiB"},
		"recall_at_10": {recall, "ratio"},
	}
	samples := map[string]int{}
	secs := sch.windowEnd.Sub(sch.windowStart).Seconds()
	for k := opKind(0); k < numKinds; k++ {
		lat := rec.lat[k]
		if len(lat) == 0 {
			continue
		}
		name := kindNames[k]
		if k == opIngest {
			name = "ingest_ack"
		}
		samples[kindNames[k]] = len(lat)
		all[name+"_p50_ms"] = metric{ms(quantile(lat, 0.5)), "ms"}
		all[name+"_p90_ms"] = metric{ms(quantile(lat, 0.9)), "ms"}
		all[name+"_p99_ms"] = metric{ms(quantile(lat, 0.99)), "ms"}
	}
	all["search_qps"] = metric{float64(len(rec.lat[opSearch])) / secs, "1/s"}
	if w.ingest {
		all["ingest_docs_per_s"] = metric{float64(rec.acked) / secs, "1/s"}
	}
	all["failed_ratio"] = metric{float64(rec.failed) / float64(max(rec.attempted, 1)), "ratio"}

	r := &record{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
		Host:    hostInfo(),
		Params:  params(cfg, in),
		All:     all,
		Samples: samples,
		Errors:  rec.errs,
	}
	if d.tr != nil {
		r.Findings = d.layerMetrics(all, rec, before, atStart, atEnd, after, drain)
		r.SpanFile = filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, cfg.seed))
		if err := d.tr.writeSpans(r.SpanFile); err != nil {
			return nil, err
		}
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	r.Result = result{Correct: rec.failed == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: map[string]metric{}}
	for _, n := range names {
		m, ok := all[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		r.Result.Metrics[n] = m
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace]))
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return nil, err
	}
	summarize(log, r)
	return r, nil
}

// probe checks served replies against the in-process engine and measures
// recall_at_10 on the probe sentences: the share whose source article
// ranks in the top 10 of the served reply.
func (d *loadGen) probe(rec *recorder) float64 {
	ctx := context.Background()
	found := 0
	check := func(q kwQuery, target int) {
		rec.attempted++
		want, err := d.sys.engine.SearchContext(ctx, q.engineQuery())
		if err != nil {
			rec.fail(opSearch, fmt.Errorf("probe %q in process: %w", q.Text, err))
			return
		}
		got := want
		if d.sys.baseURL != "" {
			got, err = d.searchHTTP(q, rec)
		}
		if err == nil {
			err = d.valid.search(got, topK, q)
		}
		if err == nil {
			err = sameResults(got, want)
		}
		if err != nil {
			rec.fail(opSearch, fmt.Errorf("probe %q: %w", q.Text, err))
			return
		}
		for _, r := range got {
			if r.ID == target {
				found++
			}
		}
	}
	for _, p := range d.in.Probes {
		check(kwQuery{Text: p.Text}, p.Target)
	}
	// Keyword probes cover the filtered requests too.
	for _, q := range d.in.Keyword[:min(len(d.in.Keyword), 40)] {
		check(q, -1)
	}
	return float64(found) / float64(max(len(d.in.Probes), 1))
}

// layerMetrics derives the per-layer metrics of a traced run and returns
// the findings the record keeps about the stage split.
func (d *loadGen) layerMetrics(all map[string]metric, rec *recorder, before, atStart, atEnd, after counters, drain time.Duration) map[string]any {
	tr := d.tr
	us := func(v time.Duration) float64 { return float64(v) / float64(time.Microsecond) }
	byName := map[string][]time.Duration{}
	attrSum := map[string]int64{}
	selfByLayer := map[string][]time.Duration{}
	var rootDur []time.Duration
	var pathsDur []time.Duration
	searchOps := 0
	for _, ot := range tr.ops {
		self := map[string]time.Duration{}
		var analyze, explain time.Duration
		for i := range ot.spans {
			s := &ot.spans[i]
			key := ot.kind + "/" + s.Name
			byName[key] = append(byName[key], s.dur())
			for a, v := range s.Attrs {
				attrSum[key+"/"+a] += v
			}
			if l := s.layer(); l != "bench" && l != "server" && l != "cluster" {
				self[l] += selfTime(ot.spans, i)
			}
			switch s.Name {
			case "newslink.analyze":
				analyze = s.dur()
			case "newslink.explain":
				explain = s.dur()
			}
		}
		for l, v := range self {
			selfByLayer[l] = append(selfByLayer[l], v)
		}
		switch ot.kind {
		case "search":
			searchOps++
			rootDur = append(rootDur, ot.spans[0].dur())
		case "explain":
			pathsDur = append(pathsDur, explain-analyze)
		}
	}
	med := func(key string) float64 {
		if v := byName[key]; len(v) > 0 {
			return us(quantile(v, 0.5))
		}
		return 0
	}
	set := func(name string, v float64, unit string) { all[name] = metric{v, unit} }
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}

	// server: HTTP time minus the engine's own SearchContextFull time for
	// the same requests, from the engine's exported latency sum.
	serverSelf := 0.0
	if d.w.http && rec.allN[opSearch] > 0 {
		engine := time.Duration((after.searchSecondsSum - before.searchSecondsSum) * float64(time.Second))
		serverSelf = us((rec.all[opSearch] - engine) / time.Duration(rec.allN[opSearch]))
	}
	set("server.self_us", serverSelf, "us")
	set("server.shed", float64(rec.refused), "count")
	clusterSelf, shardsOK := 0.0, 0.0
	if d.w.cluster && rec.allN[opSearch] > 0 {
		clusterSelf = us((rec.all[opSearch] - rec.twin) / time.Duration(rec.allN[opSearch]))
		shardsOK = float64(rec.shardsOK) / float64(max(rec.shardsTotal, 1))
	}
	set("cluster.self_us", clusterSelf, "us")
	set("cluster.shards_ok_ratio", shardsOK, "ratio")

	for _, l := range []string{"newslink", "nlp", "core", "search", "wal"} {
		v := 0.0
		if s := selfByLayer[l]; len(s) > 0 {
			v = us(quantile(s, 0.5))
		}
		set(l+".self_us", v, "us")
	}
	set("newslink.analyze_us", med("search/newslink.analyze"), "us")
	extra := tr.extraHits.Load()
	if d.w.cluster {
		extra = 0 // the composition runs on the oracle, not behind the router
	}
	set("newslink.query_cache_hit_ratio", ratio(atEnd.queryHits-atStart.queryHits-min(extra, atEnd.queryHits-atStart.queryHits), atEnd.queryMiss-atStart.queryMiss), "ratio")
	set("newslink.embed_cache_hit_ratio", ratio(atEnd.embedHits-atStart.embedHits, atEnd.embedMiss-atStart.embedMiss), "ratio")
	set("newslink.materialize_us", med("search/newslink.materialize"), "us")
	matBytes := 0.0
	if n := len(byName["search/newslink.materialize"]); n > 0 {
		matBytes = float64(attrSum["search/newslink.materialize/bytes"]) / float64(n)
	}
	set("newslink.materialize_bytes", matBytes, "bytes")
	set("newslink.ingest_drain_ms", ms(drain), "ms")
	set("newslink.segments", float64(d.sys.engine.NumSegments()), "count")
	set("newslink.merges", float64(after.merges-before.merges), "count")
	set("nlp.process_us", med("search/nlp.process"), "us")
	docNLP := append(append([]time.Duration(nil), byName["related/nlp.process_doc"]...), byName["ingest/nlp.process_doc"]...)
	set("nlp.process_doc_us", medianUS(docNLP), "us")
	set("core.embed_us", med("search/core.embed"), "us")
	expansions := 0.0
	if n := len(byName["search/core.embed"]); n > 0 {
		expansions = float64(attrSum["search/core.embed/expansions"]) / float64(n)
	}
	set("core.expansions", expansions, "count")
	set("core.paths_us", medianUS(pathsDur), "us")
	set("search.bow_us", med("search/search.bow"), "us")
	set("search.bon_us", med("search/search.bon"), "us")
	set("search.related_bon_us", med("related/search.related_bon"), "us")
	set("search.fuse_us", med("search/search.fuse"), "us")
	var scored, decoded, skipped int64
	for _, leg := range []string{"search/search.bow", "search/search.bon"} {
		scored += attrSum[leg+"/scored"]
		decoded += attrSum[leg+"/blocks_decoded"]
		skipped += attrSum[leg+"/blocks_skipped"]
	}
	perSearch := func(v int64) float64 { return float64(v) / float64(max(searchOps, 1)) }
	set("search.postings_scored", perSearch(scored), "count")
	set("search.blocks_decoded", perSearch(decoded), "count")
	set("search.blocks_skipped_ratio", ratio(skipped, decoded), "ratio")
	set("wal.sync_us", med("ingest/wal.sync"), "us")

	ops := 0
	for k := range rec.lat {
		ops += len(rec.lat[k])
	}
	ops = max(ops, 1)
	set("runtime.alloc_bytes_per_op", float64(atEnd.mem.TotalAlloc-atStart.mem.TotalAlloc)/float64(ops), "bytes")
	set("runtime.mallocs_per_op", float64(atEnd.mem.Mallocs-atStart.mem.Mallocs)/float64(ops), "count")
	gcFrac := 0.0
	if dt := atEnd.totalCPU - atStart.totalCPU; dt > 0 {
		gcFrac = (atEnd.gcCPU - atStart.gcCPU) / dt
	}
	set("runtime.gc_cpu_fraction", gcFrac, "ratio")
	late := 0.0
	if len(rec.late) > 0 {
		late = ms(quantile(rec.late, 0.99))
	}
	set("loadgen.late_ms", late, "ms")
	overhead := 0.0
	if len(rootDur) > 0 && len(rec.lat[opSearch]) > 0 {
		overhead = us(quantile(rootDur, 0.5) - quantile(rec.lat[opSearch], 0.5))
	}
	set("trace.overhead_us", overhead, "us")

	stages := map[string]float64{}
	for _, s := range []string{"newslink.analyze", "search.bow", "search.bon", "search.fuse", "newslink.materialize"} {
		stages[s+"_us"] = med("search/" + s)
	}
	lead, leadV := "", -1.0
	for s, v := range stages {
		if v > leadV || (v == leadV && s < lead) {
			lead, leadV = s, v
		}
	}
	retrieval := med("search/search.retrieve")
	layers := map[string]float64{"server": serverSelf, "cluster": clusterSelf}
	for _, l := range []string{"newslink", "nlp", "core", "search", "wal"} {
		layers[l] = all[l+".self_us"].Value
	}
	return map[string]any{
		"stage_median_us":            stages,
		"retrieval_wall_us":          retrieval,
		"leading_stage":              strings.TrimSuffix(lead, "_us"),
		"materialize_over_retrieval": stages["newslink.materialize_us"] > retrieval,
		"bow_leads":                  lead == "search.bow_us",
		"layer_self_us":              layers,
		"traced_ops":                 len(tr.ops),
		"identity_checked":           tr.identityOK.Load(),
		"identity_skipped":           tr.identitySkipped.Load(),
		"ingest_samples_dropped":     tr.docsDropped.Load(),
		"ingest_queue_depth_after":   d.sys.engine.Metrics().Gauge("newslink_ingest_queue_depth", "").Value(),
	}
}

func quantile(v []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func medianUS(v []time.Duration) float64 {
	if len(v) == 0 {
		return 0
	}
	return float64(quantile(v, 0.5)) / float64(time.Microsecond)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// params records the workload parameters of the run.
func params(cfg config, in *inputs) map[string]any {
	p := map[string]any{
		"kg_countries":      cfg.sizes.Countries,
		"kg_nodes":          in.World.Graph.NumNodes(),
		"docs":              len(in.Docs),
		"profile":           "cnn",
		"clients":           cfg.w.clients,
		"k":                 topK,
		"beta":              newslink.DefaultConfig().Beta,
		"warmup_s":          cfg.warmup.Seconds(),
		"setup_reps":        cfg.setupReps,
		"embed_cache":       embedCacheSize,
		"max_inflight":      maxInFlight,
		"admission_wait_ms": ms(admissionWait),
		"query_timeout_s":   queryTimeout.Seconds(),
		"probes":            len(in.Probes),
		"inputs_sha256":     in.fingerprint(),
	}
	if cfg.w.mix {
		p["mix"] = "70% search, 20% related, 10% explain"
		p["keyword_texts"] = len(in.Keyword)
		p["zipf_s"] = zipfS
	}
	if cfg.w.ingest {
		p["ingest_rate_docs_per_s"] = ingestRate
		p["ingest_queue"] = ingestQueue
	}
	if cfg.trace {
		p["trace_every"] = traceEvery
	}
	return p
}

// hostInfo names the machine and build the run measured.
func hostInfo() map[string]any {
	h := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu_model":  "unknown",
		"git_commit": gitCommit(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// gitCommit reads the checked-out commit from .git in the working
// directory; a checkout without one (an exported tree) reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// summarize prints the run's metrics for a human reader.
func summarize(w io.Writer, r *record) {
	names := make([]string, 0, len(r.All))
	for n := range r.All {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "nlbench: %s seed %d traced=%v: %d attempted, %d failed\n", r.Workload, r.Seed, r.Traced, r.Result.Attempted, r.Result.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, r.All[n].Value, r.All[n].Unit)
	}
	if r.Findings != nil {
		b, _ := json.Marshal(r.Findings)
		fmt.Fprintf(w, "  findings: %s\n", b)
	}
}
