package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"newslink"
)

// tinySizes is a world small enough that a smoke run of every workload
// takes a few seconds.
func tinySizes() sizes {
	return sizes{Countries: 20, Docs: 600, Stream: 2000, KeywordText: 200, Partial: 20000, Probes: 20}
}

type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmokeEveryWorkload runs each workload on a tiny corpus, untraced and
// traced, and checks that the result carries exactly the metrics
// BENCHMARK.json names for that mode, each with its unit, and no failure.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workload) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command knows %d", len(spec.Workload), len(workloads))
	}
	for _, sw := range spec.Workload {
		w, err := workloadByName(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			cfg := config{w: w, seed: 3, seconds: 1, warmup: 200 * time.Millisecond, trace: traced,
				sizes: tinySizes(), setupReps: 2, outDir: t.TempDir()}
			var log bytes.Buffer
			rec, err := runBenchmark(cfg, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, log.String())
			}
			res := rec.Result
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d: %v", w.name, traced, res.Correct, res.Failed, res.Attempted, rec.Errors)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if traced {
				if _, err := os.Stat(rec.SpanFile); err != nil {
					t.Errorf("%s: span file: %v", w.name, err)
				}
				if n := rec.Findings["identity_checked"].(int64); n == 0 && !w.ingest {
					t.Errorf("%s: no composed ranking was checked against a served one", w.name)
				}
			}
		}
	}
}

// TestValidatorRejectsCorruptReplies feeds the validator hand-corrupted
// replies; each must be rejected, and the intact ones accepted.
func TestValidatorRejectsCorruptReplies(t *testing.T) {
	in := &inputs{Docs: []newslink.Document{{ID: 1, Time: 100}, {ID: 2, Time: 200}, {ID: 3, Time: 300}, {ID: 4, Time: 400}}}
	v := newValidator(in, func(id int, label string) (bool, error) { return id != 3, nil })
	res := func(pairs ...float64) []newslink.Result {
		var out []newslink.Result
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, newslink.Result{ID: int(pairs[i]), Score: pairs[i+1]})
		}
		return out
	}
	good := res(4, 1, 2, 0.5, 1, 0.25)
	if err := v.search(good, 10, kwQuery{Text: "q"}); err != nil {
		t.Fatalf("intact search reply rejected: %v", err)
	}
	if err := v.search(res(4, 0.9, 2, 0.5), 10, kwQuery{Text: "q", After: 200}); err != nil {
		t.Fatalf("intact windowed reply rejected: %v", err)
	}
	if err := v.related(good, 10, 3); err != nil {
		t.Fatalf("intact related reply rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		err  error
	}{
		{"unsorted scores", v.search(res(4, 1, 2, 0.25, 1, 0.5), 10, kwQuery{Text: "q"})},
		{"duplicate id", v.search(res(4, 1, 2, 0.5, 4, 0.25), 10, kwQuery{Text: "q"})},
		{"unknown id", v.search(res(4, 1, 99, 0.5), 10, kwQuery{Text: "q"})},
		{"score above 1", v.search(res(4, 1.5, 2, 0.5), 10, kwQuery{Text: "q"})},
		{"zero score", v.search(res(4, 1, 2, 0), 10, kwQuery{Text: "q"})},
		{"more than k", v.search(good, 2, kwQuery{Text: "q"})},
		{"fused top too low", v.search(res(4, 0.1), 10, kwQuery{Text: "q"})},
		{"out-of-window doc", v.search(res(4, 1, 1, 0.5), 10, kwQuery{Text: "q", After: 200})},
		{"facet violated", v.search(res(4, 1, 3, 0.5), 10, kwQuery{Text: "q", Entity: "x"})},
		{"related returns its source", v.related(good, 10, 2)},
		{"related top below 1", v.related(res(4, 0.9, 2, 0.5), 10, 3)},
	} {
		if c.err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := sameResults(good, res(4, 1, 2, 0.5, 1, 0.2500001)); err == nil {
		t.Error("sameResults accepted a differing score")
	}
}

// TestEntityOracle checks the facet oracle against the engine on a tiny
// corpus — both must agree on every document for every facet label the
// inputs use — and then feeds a deferred facet check a reply a faulty
// filter could give (a document without the entity), which it must reject.
func TestEntityOracle(t *testing.T) {
	in := generate(5, tinySizes())
	e, err := buildEngine(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	o := newEntityOracle(in)
	labels := map[string]bool{}
	for _, q := range in.Keyword {
		if q.Entity != "" {
			labels[q.Entity] = true
		}
	}
	if len(labels) == 0 {
		t.Fatal("the inputs carry no entity facet")
	}
	var label string
	wrong, carriers := -1, 0
	for l := range labels {
		for _, d := range in.Docs {
			want, err := e.DocVisible(d.ID, 0, 0, e.EntityTerms([]string{l}))
			if err != nil {
				t.Fatal(err)
			}
			got, err := o.carries(d.ID, l)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("doc %d, entity %q: oracle says %v, engine %v", d.ID, l, got, want)
			}
			if got {
				carriers++
			} else {
				label, wrong = l, d.ID
			}
		}
	}
	if carriers == 0 || wrong < 0 {
		t.Fatalf("%d (doc, entity) pairs carry the entity, doc %d lacks one: no contrast to check", carriers, wrong)
	}
	var f facetLog
	v := newValidator(in, f.note)
	if err := v.search([]newslink.Result{{ID: wrong, Score: 1}}, 10, kwQuery{Text: label, Entity: label}); err != nil {
		t.Fatalf("deferred check failed early: %v", err)
	}
	if errs := f.verify(o.carries); len(errs) != 1 {
		t.Fatalf("doc %d without entity %q: %d errors, want 1: %v", wrong, label, len(errs), errs)
	}
}

// TestInputsDeterministic: one seed always yields byte-identical inputs,
// and another seed different ones.
func TestInputsDeterministic(t *testing.T) {
	a, b := generate(7, tinySizes()).fingerprint(), generate(7, tinySizes()).fingerprint()
	if a != b {
		t.Fatalf("seed 7 generated different inputs: %s vs %s", a, b)
	}
	if c := generate(8, tinySizes()).fingerprint(); c == a {
		t.Fatal("seeds 7 and 8 generated identical inputs")
	}
}
