package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"newslink"
	"newslink/internal/corpus"
	"newslink/internal/kg"
	"newslink/internal/nlp"
)

// sizes fixes how big the generated world is. The default is the full
// benchmark scale; tests pass a tiny one.
type sizes struct {
	Countries   int // kg.Config.Countries (1250 ≈ 100k KG nodes)
	Docs        int // indexed corpus articles
	Stream      int // corpus.Stream articles available to the ingest writer
	KeywordText int // distinct keyword query texts
	Partial     int // distinct partial-query sentences (load stream)
	Probes      int // recall / identity probe sentences, never in the load
}

// fullSizes is the benchmark scale for a run of the given length. The
// ingest stream covers the writer's offered rate over warm-up plus the
// window with headroom; the partial-query stream covers its caller at up
// to 2500 queries/s, several times the rate measured on a 2-CPU host, so
// a faster program never runs out of unrepeated sentences.
func fullSizes(seconds int) sizes {
	return sizes{
		Countries:   1250,
		Docs:        10000,
		Stream:      ingestRate * (seconds + int(warmup/time.Second) + 2),
		KeywordText: 2000,
		Partial:     2500*(seconds+int(warmup/time.Second)) + 1000,
		Probes:      400,
	}
}

// kwQuery is one keyword query text with its optional filter.
type kwQuery struct {
	Text   string `json:"text"`
	After  int64  `json:"after,omitempty"`
	Entity string `json:"entity,omitempty"`
}

// partialQuery is one sentence of an indexed article; Target is that
// article's ID, the document recall_at_10 looks for.
type partialQuery struct {
	Text   string `json:"text"`
	Target int    `json:"target"`
}

// inputs is everything a run feeds the program, all derived from one seed.
type inputs struct {
	Seed    int64
	World   *kg.World
	Docs    []newslink.Document
	Stream  []newslink.Document // ingest-serve writes; IDs disjoint from Docs
	Keyword []kwQuery
	Partial []partialQuery
	Probes  []partialQuery
	// RelatedIDs is a seeded permutation of the corpus IDs; related
	// requests draw Zipf-distributed ranks into it.
	RelatedIDs []int
	// RecentAfter is the after= bound of the newest ~10% of the corpus.
	RecentAfter int64
}

// streamIDBase offsets ingested document IDs past any corpus ID.
const streamIDBase = 10_000_000

func generate(seed int64, sz sizes) *inputs {
	cfg := kg.DefaultConfig(seed)
	cfg.Countries = sz.Countries
	w := kg.Generate(cfg)
	arts := corpus.Generate(w, corpus.CNNLike(), sz.Docs, seed)
	in := &inputs{Seed: seed, World: w, Docs: toDocs(arts, 0)}
	in.Stream = toDocs(corpus.Stream(w, corpus.CNNLike(), sz.Stream, seed+1), streamIDBase)
	in.RecentAfter = arts[len(arts)*9/10].Time

	rng := rand.New(rand.NewSource(seed))
	in.Keyword = keywordQueries(w, arts, in.RecentAfter, sz.KeywordText, rng)
	sents := partialQueries(arts, sz.Partial+sz.Probes, rng)
	in.Probes, in.Partial = sents[:sz.Probes], sents[sz.Probes:]
	in.RelatedIDs = make([]int, len(arts))
	for i, p := range rng.Perm(len(arts)) {
		in.RelatedIDs[i] = arts[p].ID
	}
	return in
}

func toDocs(arts []corpus.Article, idBase int) []newslink.Document {
	docs := make([]newslink.Document, len(arts))
	for i, a := range arts {
		docs[i] = newslink.Document{ID: idBase + a.ID, Title: a.Title, Text: a.Text, Time: a.Time}
	}
	return docs
}

// keywordQueries builds n distinct short queries of 2–3 entity labels, each
// naming entities of one KG event the corpus reports on (its participants,
// place and country) — what a reader types into a news search box. One in
// eight carries a filter: half a recency window (after=), half an entity
// facet on one of the query's own labels.
func keywordQueries(w *kg.World, arts []corpus.Article, recentAfter int64, n int, rng *rand.Rand) []kwQuery {
	g := w.Graph
	byNode := make(map[kg.NodeID]kg.Event, len(w.Events))
	for _, ev := range w.Events {
		byNode[ev.Node] = ev
	}
	var covered []kg.Event
	for i, a := range arts {
		if ev, ok := byNode[a.Event]; ok && (i == 0 || arts[i-1].Event != a.Event) {
			covered = append(covered, ev)
		}
	}
	seen := make(map[string]bool, n)
	out := make([]kwQuery, 0, n)
	for attempts := 0; len(out) < n && attempts < 50*n; attempts++ {
		ev := covered[rng.Intn(len(covered))]
		var labels []string
		add := func(id kg.NodeID) {
			l := g.Label(id)
			for _, x := range labels {
				if x == l {
					return
				}
			}
			labels = append(labels, l)
		}
		for _, p := range ev.Participants {
			add(p)
		}
		add(ev.Location)
		add(ev.Country)
		if len(labels) < 2 {
			continue
		}
		rng.Shuffle(len(labels), func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
		labels = labels[:2+rng.Intn(min(2, len(labels)-1))]
		q := kwQuery{Text: strings.Join(labels, " ")}
		if seen[kg.Fold(q.Text)] {
			continue
		}
		seen[kg.Fold(q.Text)] = true
		switch rng.Intn(16) {
		case 0:
			q.After = recentAfter
		case 1:
			q.Entity = labels[rng.Intn(len(labels))]
		}
		out = append(out, q)
	}
	return out
}

// partialQueries picks n distinct sentences (at least six BOW terms, so a
// sentence carries enough words to identify its article) from random
// articles, at most one per article per pass.
func partialQueries(arts []corpus.Article, n int, rng *rand.Rand) []partialQuery {
	seen := make(map[string]bool, n)
	out := make([]partialQuery, 0, n)
	for pass := 0; len(out) < n && pass < 20; pass++ {
		for _, i := range rng.Perm(len(arts)) {
			sents := nlp.SplitSentences(arts[i].Text)
			s := sents[rng.Intn(len(sents))]
			if len(nlp.Terms(s)) < 6 || seen[s] {
				continue
			}
			seen[s] = true
			out = append(out, partialQuery{Text: s, Target: arts[i].ID})
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// fingerprint hashes every generated input, so a test can assert that one
// seed always yields byte-identical inputs.
func (in *inputs) fingerprint() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range []any{in.Docs, in.Stream, in.Keyword, in.Partial, in.Probes, in.RelatedIDs, in.RecentAfter} {
		if err := enc.Encode(v); err != nil {
			panic(fmt.Sprintf("encoding inputs: %v", err))
		}
	}
	fmt.Fprintf(h, "kg:%d:%d:%d", in.World.Graph.NumNodes(), in.World.Graph.NumEdges(), len(in.World.Events))
	return hex.EncodeToString(h.Sum(nil))
}
